//! # dlb-common
//!
//! Shared building blocks for the `hierdb` workspace, a reproduction of
//! *Bouganim, Florescu, Valduriez — "Dynamic Load Balancing in Hierarchical
//! Parallel Database Systems"* (VLDB 1996 / INRIA RR-2815).
//!
//! This crate holds everything that more than one subsystem needs and that is
//! independent of the simulation, storage and execution layers:
//!
//! * strongly-typed identifiers for nodes, processors, disks, threads,
//!   relations, operators and queries ([`ids`]),
//! * the virtual-time representation used by the discrete-event simulator
//!   ([`time`]),
//! * the configuration of the simulated hierarchical machine and of the cost
//!   model ([`config`]),
//! * the Zipf skew generator used to model redistribution / attribute-value
//!   skew ([`zipf`]),
//! * deterministic random-number helpers ([`rng`]) and libm-free rounding
//!   ([`round`]),
//! * dense index sets ([`bitset`]) and a stable-key arena ([`slab`]) for the
//!   engine's allocation-free hot paths,
//! * a minimal JSON model, parser and writer ([`json`]), through which every
//!   textual round-trip goes,
//! * the workspace error type ([`error`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitset;
pub mod config;
pub mod error;
pub mod ids;
pub mod json;
pub mod rng;
pub mod round;
pub mod slab;
pub mod time;
pub mod zipf;

pub use bitset::BitSet;
pub use config::{
    CostConstants, CpuParams, DiskParams, MachineConfig, NetworkParams, SystemConfig,
};
pub use error::{DlbError, Result};
pub use ids::{
    BucketId, DiskId, NodeId, OperatorId, PipelineChainId, ProcessorId, QueryId, RelationId,
    ThreadId,
};
pub use json::Json;
pub use round::round_u64;
pub use slab::Slab;
pub use time::{Duration, SimTime};
pub use zipf::ZipfDistribution;
