//! # dlb-sim
//!
//! Discrete-event simulation substrate for the hierdb workspace.
//!
//! The paper evaluated its execution model on a real 72-processor KSR1 but
//! *simulated* the atomic operators, the disks and the inter-node network
//! (§5.1.1). This crate provides the equivalent substrate entirely in virtual
//! time so that all experiments are deterministic and runnable on any host:
//!
//! * [`calendar::EventCalendar`] — the event queue / virtual clock,
//! * [`disk::DiskFarm`] — per-disk FIFO service timelines implementing the
//!   paper's disk parameters (latency, seek, transfer rate, asynchronous I/O
//!   with a bounded read-ahead cache),
//! * [`network::Network`] — point-to-point message timing with the paper's
//!   end-to-end delay and per-8 KB CPU costs, plus traffic accounting,
//! * [`cpu::CpuAccounting`] — per-processor busy/idle bookkeeping used to
//!   report processor utilization and idle time.
//!
//! The execution engines in `dlb-exec` drive these components from their own
//! event loops.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calendar;
pub mod cpu;
pub mod disk;
pub mod network;

pub use calendar::EventCalendar;
pub use cpu::CpuAccounting;
pub use disk::{DiskFarm, DiskRequestOutcome};
pub use network::{MessageTiming, Network, NetworkStats};
