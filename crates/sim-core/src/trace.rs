//! Trace vocabulary: the memory-operation stream workloads feed to cores.

use crate::addr::VirtAddr;

/// One memory instruction in a workload trace.
///
/// `work` counts the non-memory instructions the core executes before this
/// operation (they retire at full pipeline width); `dep_on_prev` marks a
/// pointer-chasing dependency — the access cannot issue until the previous
/// memory operation's value has returned, which is what makes irregular
/// workloads latency-bound rather than bandwidth-bound.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// Virtual byte address accessed.
    pub vaddr: VirtAddr,
    /// Store (true) or load (false).
    pub write: bool,
    /// Non-memory instructions preceding this operation.
    pub work: u16,
    /// Whether this access depends on the previous access's result.
    pub dep_on_prev: bool,
}

impl MemOp {
    /// Convenience constructor for an independent load.
    pub fn load(vaddr: VirtAddr, work: u16) -> Self {
        MemOp {
            vaddr,
            write: false,
            work,
            dep_on_prev: false,
        }
    }

    /// Convenience constructor for an independent store.
    pub fn store(vaddr: VirtAddr, work: u16) -> Self {
        MemOp {
            vaddr,
            write: true,
            work,
            dep_on_prev: false,
        }
    }

    /// Marks this operation as dependent on the previous one.
    pub fn dependent(mut self) -> Self {
        self.dep_on_prev = true;
        self
    }

    /// Total instructions this op contributes (itself + its work).
    pub fn instructions(&self) -> u64 {
        self.work as u64 + 1
    }
}

/// A reusable struct-of-arrays batch of memory operations.
///
/// Workload generators fill one of these arenas a few hundred ops at a
/// time (`SyntheticWorkload::fill_batch`). The arrays are parallel (index
/// `i` across all of them is one op); `clear` keeps the allocations, so
/// steady-state batching never touches the heap.
#[derive(Clone, Debug, Default)]
pub struct OpBatch {
    /// Virtual byte addresses.
    vaddrs: Vec<u64>,
    /// Non-memory instructions preceding each op.
    works: Vec<u16>,
    /// Packed flags: bit 0 = write, bit 1 = dep_on_prev.
    flags: Vec<u8>,
}

impl OpBatch {
    /// An empty batch with capacity for `n` ops.
    pub fn with_capacity(n: usize) -> Self {
        OpBatch {
            vaddrs: Vec::with_capacity(n),
            works: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
        }
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.vaddrs.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.vaddrs.is_empty()
    }

    /// Empties the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.vaddrs.clear();
        self.works.clear();
        self.flags.clear();
    }

    /// Appends an op.
    #[inline]
    pub fn push(&mut self, op: MemOp) {
        self.vaddrs.push(op.vaddr.raw());
        self.works.push(op.work);
        self.flags
            .push(op.write as u8 | (op.dep_on_prev as u8) << 1);
    }

    /// Reassembles op `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> MemOp {
        let flags = self.flags[i];
        MemOp {
            vaddr: VirtAddr::new(self.vaddrs[i]),
            write: flags & 1 != 0,
            work: self.works[i],
            dep_on_prev: flags & 2 != 0,
        }
    }

    /// Iterates over the ops in order.
    pub fn iter(&self) -> impl Iterator<Item = MemOp> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_batch_round_trips_and_reuses_storage() {
        let mut b = OpBatch::with_capacity(4);
        assert!(b.is_empty());
        let ops = [
            MemOp::load(VirtAddr::new(0x40), 10),
            MemOp::store(VirtAddr::new(0x80), 3).dependent(),
        ];
        for op in ops {
            b.push(op);
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), ops[0]);
        assert_eq!(b.get(1), ops[1]);
        assert_eq!(b.iter().collect::<Vec<_>>(), ops);
        b.clear();
        assert!(b.is_empty());
        b.push(ops[1]);
        assert_eq!(b.get(0), ops[1]);
    }

    #[test]
    fn constructors() {
        let l = MemOp::load(VirtAddr::new(0x40), 10);
        assert!(!l.write);
        assert_eq!(l.instructions(), 11);
        let s = MemOp::store(VirtAddr::new(0x80), 0).dependent();
        assert!(s.write);
        assert!(s.dep_on_prev);
        assert_eq!(s.instructions(), 1);
    }
}
