//! Strongly-typed identifiers used throughout the workspace.
//!
//! Every entity of the simulated hierarchical system (SM-nodes, processors,
//! disks, worker threads) and of the query layer (relations, operators,
//! pipeline chains, queries, buckets) is referenced by a small copyable
//! newtype rather than a bare integer. This keeps function signatures
//! self-documenting and prevents the classic "swapped the node id and the
//! processor id" class of bugs.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index backing this identifier.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                Self(raw as u32)
            }
        }
    };
}

id_type!(
    /// Identifier of a shared-memory multiprocessor node (SM-node).
    NodeId
);
id_type!(
    /// Identifier of a base or intermediate relation.
    RelationId
);
id_type!(
    /// Identifier of an operator in a parallel execution plan
    /// (scan, build or probe).
    OperatorId
);
id_type!(
    /// Identifier of a maximum pipeline chain within an operator tree.
    PipelineChainId
);
id_type!(
    /// Identifier of a generated query.
    QueryId
);
id_type!(
    /// Identifier of a hash bucket of the building/probing relations.
    BucketId
);

/// Identifier of a processor, qualified by the SM-node that owns it.
///
/// Processors are local to a node: `ProcessorId { node: 1, local: 3 }` is the
/// fourth processor of the second SM-node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessorId {
    /// The SM-node owning the processor.
    pub node: NodeId,
    /// Index of the processor within its node.
    pub local: u32,
}

impl ProcessorId {
    /// Creates a processor identifier.
    pub const fn new(node: NodeId, local: u32) -> Self {
        Self { node, local }
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}.{}", self.node.0, self.local)
    }
}

/// Identifier of a worker thread. The execution model allocates exactly one
/// worker thread per processor per query, so a thread identifier mirrors a
/// [`ProcessorId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId {
    /// The SM-node owning the thread.
    pub node: NodeId,
    /// Index of the thread within its node (equals the processor index).
    pub local: u32,
}

impl ThreadId {
    /// Creates a thread identifier.
    pub const fn new(node: NodeId, local: u32) -> Self {
        Self { node, local }
    }

    /// The processor this thread is pinned to.
    pub const fn processor(self) -> ProcessorId {
        ProcessorId {
            node: self.node,
            local: self.local,
        }
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.node.0, self.local)
    }
}

/// Identifier of a disk unit, qualified by the SM-node that owns it.
///
/// The evaluation configuration of the paper attaches one disk per processor,
/// but the storage layer supports any number of disks per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DiskId {
    /// The SM-node owning the disk.
    pub node: NodeId,
    /// Index of the disk within its node.
    pub local: u32,
}

impl DiskId {
    /// Creates a disk identifier.
    pub const fn new(node: NodeId, local: u32) -> Self {
        Self { node, local }
    }
}

impl fmt::Display for DiskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}.{}", self.node.0, self.local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn id_round_trip() {
        let n = NodeId::new(7);
        assert_eq!(n.index(), 7);
        assert_eq!(NodeId::from(7usize), n);
        assert_eq!(NodeId::from(7u32), n);
        assert_eq!(format!("{n}"), "NodeId(7)");
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we just exercise hashing and
        // ordering so the derives are covered.
        let mut set = HashSet::new();
        for i in 0..10u32 {
            set.insert(OperatorId::new(i));
        }
        assert_eq!(set.len(), 10);
        assert!(OperatorId::new(1) < OperatorId::new(2));
    }

    #[test]
    fn processor_and_thread_ids_display() {
        let p = ProcessorId::new(NodeId::new(2), 5);
        assert_eq!(format!("{p}"), "P2.5");
        let t = ThreadId::new(NodeId::new(2), 5);
        assert_eq!(format!("{t}"), "T2.5");
        assert_eq!(t.processor(), p);
        let d = DiskId::new(NodeId::new(0), 1);
        assert_eq!(format!("{d}"), "D0.1");
    }

    #[test]
    fn thread_is_pinned_to_matching_processor() {
        for node in 0..4u32 {
            for local in 0..8u32 {
                let t = ThreadId::new(NodeId::new(node), local);
                assert_eq!(t.processor().node, NodeId::new(node));
                assert_eq!(t.processor().local, local);
            }
        }
    }
}
