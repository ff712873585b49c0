//! A slab allocator: a freelist-backed arena with stable integer keys.
//!
//! Hot simulation state (in-flight IOs, NAND-die operations) is inserted
//! and removed constantly; keeping it in a `BTreeMap` pays an ordered-tree
//! walk and a node allocation per operation. A [`Slab`] stores values in a
//! contiguous `Vec`, reuses freed slots through an intrusive freelist, and
//! hands out the slot index as the key — insert, remove, and lookup are
//! all O(1) with no per-value allocation once the vec has grown.
//!
//! Determinism: slot assignment depends only on the sequence of
//! insert/remove calls (freed slots are reused LIFO), and iteration is in
//! slot-index order — no addresses, no hashing. Keys are *not* generation
//! counted: a key freed by [`Slab::remove`] must not be used again by the
//! caller, as the slot may have been reassigned. The simulation state
//! machines that use slabs own their keys for exactly one in-flight
//! operation, so stale keys cannot occur by construction.

/// Sentinel meaning "no next free slot".
const NONE: usize = usize::MAX;

#[derive(Debug, Clone)]
enum Slot<T> {
    Occupied(T),
    Free { next: usize },
}

/// A freelist arena with O(1) insert/remove/lookup and deterministic,
/// slot-index-ordered iteration.
///
/// # Examples
///
/// ```
/// use powadapt_sim::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.get(a), Some(&"alpha"));
/// assert_eq!(slab.remove(a), Some("alpha"));
/// // Freed slots are reused (LIFO), so growth is bounded by the peak
/// // number of simultaneously live values.
/// let c = slab.insert("gamma");
/// assert_eq!(c, a);
/// assert_eq!(slab.len(), 2);
/// # let _ = b;
/// ```
#[derive(Debug, Clone, Default)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: usize,
    len: usize,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NONE,
            len: 0,
        }
    }

    /// Creates an empty slab with room for `cap` values before growing.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: NONE,
            len: 0,
        }
    }

    /// Stores `value` and returns its slot key.
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        if self.free_head == NONE {
            self.slots.push(Slot::Occupied(value));
            self.slots.len() - 1
        } else {
            let key = self.free_head;
            let slot = &mut self.slots[key];
            if let Slot::Free { next } = *slot {
                self.free_head = next;
            }
            *slot = Slot::Occupied(value);
            key
        }
    }

    /// Removes and returns the value at `key`, freeing the slot.
    ///
    /// Returns `None` if the slot is vacant or the key out of range.
    pub fn remove(&mut self, key: usize) -> Option<T> {
        let slot = self.slots.get_mut(key)?;
        if matches!(slot, Slot::Free { .. }) {
            return None;
        }
        let prev = std::mem::replace(
            slot,
            Slot::Free {
                next: self.free_head,
            },
        );
        self.free_head = key;
        self.len -= 1;
        match prev {
            Slot::Occupied(v) => Some(v),
            // Unreachable: vacancy was checked above.
            Slot::Free { .. } => None,
        }
    }

    /// Returns the value at `key`, if occupied.
    pub fn get(&self, key: usize) -> Option<&T> {
        match self.slots.get(key) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Returns the value at `key` mutably, if occupied.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        match self.slots.get_mut(key) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Is `key` an occupied slot?
    pub fn contains(&self, key: usize) -> bool {
        matches!(self.slots.get(key), Some(Slot::Occupied(_)))
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all values and resets the freelist (slot numbering restarts
    /// from zero).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = NONE;
        self.len = 0;
    }

    /// Iterates `(key, &value)` over occupied slots in slot-index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied(v) => Some((i, v)),
            Slot::Free { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s = Slab::new();
        let a = s.insert(10u32);
        let b = s.insert(20u32);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get_mut(b).map(|v| *v), Some(20));
        assert_eq!(s.remove(a), Some(10));
        assert_eq!(s.remove(a), None, "double-remove is None");
        assert!(!s.contains(a));
        assert!(s.contains(b));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut s = Slab::new();
        let keys: Vec<usize> = (0..4u32).map(|i| s.insert(i)).collect();
        s.remove(keys[1]);
        s.remove(keys[3]);
        assert_eq!(s.insert(99), keys[3]);
        assert_eq!(s.insert(98), keys[1]);
        // No free slots left: the next insert grows the vec.
        assert_eq!(s.insert(97), 4);
    }

    #[test]
    fn iteration_is_in_slot_order() {
        let mut s = Slab::new();
        for i in 0..5u32 {
            s.insert(i * 10);
        }
        s.remove(2);
        let got: Vec<(usize, u32)> = s.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, vec![(0, 0), (1, 10), (3, 30), (4, 40)]);
    }

    #[test]
    fn out_of_range_keys_are_safe() {
        let mut s: Slab<u8> = Slab::new();
        assert_eq!(s.get(7), None);
        assert_eq!(s.remove(7), None);
        assert!(!s.contains(7));
        assert!(s.is_empty());
    }

    #[test]
    fn clear_resets_numbering() {
        let mut s = Slab::new();
        s.insert(1u8);
        s.insert(2u8);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.insert(3u8), 0);
    }
}
