//! Per-processor memory events and programs.

use crate::Addr;

/// Identifier of a barrier episode. All processors must arrive at barriers
/// in the same id order; the simulator releases everyone once the last
/// participant arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BarrierId(pub u32);

/// One step of a simulated processor's execution.
///
/// `Compute` abstracts instruction execution and private data references —
/// the paper likewise simulates those as first-level-cache hits. All `Read`
/// and `Write` events reference the *shared* address space and flow through
/// the full memory-system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemEvent {
    /// Execute for `n` processor cycles without a shared-memory reference.
    Compute(u32),
    /// A shared-data load (blocking: the processor stalls on a cache miss).
    Read(Addr),
    /// A shared-data store (buffered under relaxed consistency).
    Write(Addr),
    /// A software prefetch instruction (Mowry & Gupta style): a non-binding,
    /// non-blocking hint to fetch the block — exclusively if `exclusive`.
    /// Dropped without effect when the block is already present or the
    /// memory system is busy, exactly like a hardware prefetch.
    Prefetch {
        /// The hinted address.
        addr: Addr,
        /// Request an exclusive copy (read-exclusive prefetch).
        exclusive: bool,
    },
    /// Acquire the lock whose variable lives at the given address.
    Acquire(Addr),
    /// Release a previously acquired lock.
    Release(Addr),
    /// Arrive at a barrier and wait for all processors.
    Barrier(BarrierId),
}

// A paper-scale sweep holds millions of these; see `Addr`.
const _: () = assert!(size_of::<MemEvent>() == 8);

impl MemEvent {
    /// Whether this event is a shared-data reference (read or write).
    pub fn is_data_ref(&self) -> bool {
        matches!(self, MemEvent::Read(_) | MemEvent::Write(_))
    }
}

/// The sequence of events one processor executes.
///
/// # Example
///
/// ```
/// use dirext_trace::{Addr, MemEvent, Program};
///
/// let p = Program::from_events(vec![
///     MemEvent::Compute(4),
///     MemEvent::Read(Addr::new(64)),
///     MemEvent::Write(Addr::new(64)),
/// ]);
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.data_refs(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    events: Vec<MemEvent>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a program from a pre-built event list.
    pub fn from_events(events: Vec<MemEvent>) -> Self {
        Program { events }
    }

    /// The events in execution order.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// Event at position `pc`, if any.
    pub fn get(&self, pc: usize) -> Option<MemEvent> {
        self.events.get(pc).copied()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of shared-data references (reads + writes).
    pub fn data_refs(&self) -> usize {
        self.events.iter().filter(|e| e.is_data_ref()).count()
    }

    /// Appends an event.
    pub fn push(&mut self, e: MemEvent) {
        self.events.push(e);
    }

    /// The last event, for a builder to rewrite in place.
    pub(crate) fn last_mut(&mut self) -> Option<&mut MemEvent> {
        self.events.last_mut()
    }

    /// The sequence of barrier ids this program passes through, in order.
    pub fn barrier_sequence(&self) -> Vec<BarrierId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                MemEvent::Barrier(id) => Some(*id),
                _ => None,
            })
            .collect()
    }
}

impl FromIterator<MemEvent> for Program {
    fn from_iter<T: IntoIterator<Item = MemEvent>>(iter: T) -> Self {
        Program {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<MemEvent> for Program {
    fn extend<T: IntoIterator<Item = MemEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(MemEvent::Read(Addr::new(0)).is_data_ref());
        assert!(MemEvent::Write(Addr::new(0)).is_data_ref());
        assert!(!MemEvent::Compute(1).is_data_ref());
    }

    #[test]
    fn program_accessors() {
        let mut p = Program::new();
        assert!(p.is_empty());
        p.push(MemEvent::Compute(2));
        p.push(MemEvent::Barrier(BarrierId(1)));
        p.push(MemEvent::Read(Addr::new(32)));
        p.push(MemEvent::Barrier(BarrierId(2)));
        assert_eq!(p.len(), 4);
        assert_eq!(p.data_refs(), 1);
        assert_eq!(p.get(1), Some(MemEvent::Barrier(BarrierId(1))));
        assert_eq!(p.get(99), None);
        assert_eq!(p.barrier_sequence(), vec![BarrierId(1), BarrierId(2)]);
    }

    #[test]
    fn collect_and_extend() {
        let mut p: Program = (0..3).map(|_| MemEvent::Compute(1)).collect();
        p.extend([MemEvent::Read(Addr::new(0))]);
        assert_eq!(p.len(), 4);
    }
}
