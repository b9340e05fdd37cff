#![warn(missing_docs)]

//! # dnc-sim — cell-level discrete-event simulator for FIFO/SP networks
//!
//! The paper evaluates analytically; this crate supplies the missing
//! empirical leg: a deterministic, cell-based simulator of the same
//! networks, used to certify that every computed bound dominates every
//! observed delay (`simulated max ≤ bound` for conforming sources) and to
//! show how pessimistic each analysis is relative to realizable behavior.
//!
//! Model:
//! * time advances in unit **ticks**; a server of rate `C` accrues `C`
//!   cells of service credit per tick (exact rationals, no drift) and
//!   forwards whole cells while it has credit and backlog;
//! * servers are processed in topological order within a tick, so an
//!   uncontended cell cuts through the whole network in one tick — the
//!   cell-level counterpart of the fluid model the bounds are computed
//!   in (the simulator can only *under*-shoot the fluid worst case, the
//!   safe direction for a ground-truth oracle);
//! * sources are [`dnc_traffic::CellSource`]s: greedy (adversarial),
//!   periodic, on-off, or Bernoulli, always shaped to their spec;
//! * FIFO and static-priority disciplines are supported, mirroring
//!   `dnc-net`'s server model.
//!
//! [`batch`] runs seed/model sweeps on scoped worker threads — the
//! knob-turning companion for the validation harnesses.

mod engine;
mod stats;

pub mod batch;
pub mod fault;

pub use engine::{all_greedy, simulate, simulate_with_faults, SimConfig, Simulation};
pub use fault::{Fault, FaultPlan, FaultStats};
pub use stats::{FlowStats, ServerStats, ServerTrace, SimReport};
