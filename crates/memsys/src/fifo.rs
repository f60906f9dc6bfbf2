//! Bounded FIFO buffers (FLWB/SLWB capacity model).

use std::collections::VecDeque;

/// A bounded first-in-first-out buffer.
///
/// The write buffers in each node are FIFO queues of fixed depth; when a
/// buffer fills, the producer (ultimately the processor) stalls. `push`
/// therefore reports rejection instead of growing.
///
/// # Example
///
/// ```
/// use dirext_memsys::Fifo;
///
/// let mut wb: Fifo<u32> = Fifo::new(2);
/// assert!(wb.push(1).is_ok());
/// assert!(wb.push(2).is_ok());
/// assert_eq!(wb.push(3), Err(3)); // full: the value comes back
/// assert_eq!(wb.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Creates a FIFO of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "a zero-capacity buffer would deadlock the machine"
        );
        Fifo {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends an item, or returns it back if the buffer is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when at capacity.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() == self.capacity {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Removes and returns the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// The oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut f = Fifo::new(3);
        f.push('a').unwrap();
        f.push('b').unwrap();
        f.push('c').unwrap();
        assert_eq!(f.pop(), Some('a'));
        f.push('d').unwrap();
        let rest: Vec<_> = std::iter::from_fn(|| f.pop()).collect();
        assert_eq!(rest, vec!['b', 'c', 'd']);
    }

    #[test]
    fn rejects_when_full() {
        let mut f = Fifo::new(1);
        f.push(10).unwrap();
        assert_eq!(f.push(11), Err(11));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn front_access() {
        let mut f = Fifo::new(2);
        assert!(f.front().is_none());
        f.push(5).unwrap();
        f.push(6).unwrap();
        assert_eq!(f.front(), Some(&5));
        assert_eq!(f.pop(), Some(5));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        let _: Fifo<u8> = Fifo::new(0);
    }
}
