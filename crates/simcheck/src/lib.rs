//! simcheck — deterministic simulation checking for the blended-classroom
//! testbed.
//!
//! The blueprint's consistency story (heartbeat failure detection, graceful
//! degradation, post-heal resync) is only as strong as the fault schedules it
//! was tested under. This crate turns those properties into *invariant
//! oracles* checked continuously while a [`Scenario`] session runs, and
//! explores the schedule space with seeded random netsim
//! [`FaultWindow`](metaclass_netsim::FaultWindow)s:
//!
//! - [`oracle`] — the [`Oracle`] trait, the registry the
//!   engine invokes at every boundary, and the violation record;
//! - [`oracles`] — the standard invariants: clock monotonicity, packet
//!   conservation, partition isolation, crashed-node silence, avatar
//!   staleness bounds, and post-heal resync convergence;
//! - [`plan`] — random window lists over a scenario's topology and the
//!   duration-halving step of the shrinker;
//! - [`scenario`] — the checked session: a workload spec (by default the
//!   classic two-campus deployment), its tight tuning, and its topology;
//! - [`mod@explore`] — the deterministic runner, the seeded explorer, and the
//!   shrinking minimizer (greedy window removal, then duration halving);
//! - [`regress`] — replayable JSON regression cases;
//! - [`cli`] — the `bench simcheck` subcommand.
//!
//! Everything is a pure function of the seed: the same flags produce
//! byte-identical output on every rerun.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod explore;
pub mod oracle;
pub mod oracles;
pub mod plan;
pub mod regress;
pub mod scenario;

pub use cli::{run_cli, run_to};
pub use explore::{
    explore, explore_with, mix, run_plan, shrink, ExploreConfig, ExploreOutcome, FoundViolation,
    RunOutcome,
};
pub use oracle::{observer_for, shared, Oracle, OracleRegistry, Probe, SharedRegistry, Violation};
pub use oracles::{standard_oracles, CanaryOracle};
pub use plan::{generate_windows, PlanSpace};
pub use regress::{RegressionCase, SCHEMA_VERSION};
pub use scenario::{Scenario, Topology};
