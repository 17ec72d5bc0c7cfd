//! # bfl-net
//!
//! Time and network simulation substrate.
//!
//! The paper's delay analysis (Section 4.6) decomposes a round into
//! `T(n, m) = T_local + T_up + T_ex + T_gl + T_bl`, where the upload and
//! exchange terms are dominated by communication: "the clients are often at
//! the edge of the network, and the quality of the channel is difficult to
//! guarantee". This crate provides the simulated clock the whole system
//! runs on, parametric per-link delay distributions (constant, uniform,
//! normal, exponential) with payload-size-dependent transfer times, the
//! discrete-event substrate of the asynchronous round engine — a
//! deterministic [`EventQueue`] ordered by `(simulated time, insertion
//! sequence)` plus per-client [`NodeProfile`]s (compute rate, uplink
//! latency, churn schedule) — and the
//! client↔miner topology (uniform random association per round, miner full
//! mesh).

#![warn(missing_docs)]

pub mod clock;
pub mod delay;
pub mod event;
pub mod fault;
pub mod profile;
pub mod topology;

pub use clock::SimClock;
pub use delay::{DelayDistribution, LinkModel};
pub use event::{EventQueue, InvalidEventTime, ScheduledEvent};
pub use fault::{CrashSchedule, FaultPlan, LinkFaults, Partition, TimeWindow};
pub use profile::{ChurnSchedule, NodeProfile};
pub use topology::Topology;
