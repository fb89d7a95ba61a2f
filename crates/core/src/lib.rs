//! # metaclass-core
//!
//! The virtual-physical blended Metaverse classroom of Wang, Lee, Braud &
//! Hui (ICDCS 2022): a runnable implementation of the blueprint's Figure 3.
//!
//! A session joins any number of **physical MR classrooms** (headsets + room
//! sensor arrays + an edge server each), one **cloud VR classroom**, and
//! **remote learner cohorts** around the world into a single synchronized
//! space: every participant's motion, gestures, and facial expression appear
//! as a digital-twin avatar in every other room, seat-corrected to the local
//! geometry.
//!
//! - [`SessionBuilder`] / [`ClassroomSession`] — assemble and run the
//!   deployment (the paper's unit case is two HKUST campuses + the cloud);
//! - [`SessionReport`] — measured per-path latencies, bandwidth, and
//!   suppression statistics;
//! - [`PathBudget`] — analytic per-hop motion-to-photon budgets for each
//!   Figure-3 path;
//! - [`TeachingModality`] — the survey taxonomy of Figure 1;
//! - [`ScenarioSpec`] — the declarative workload DSL (TOML specs under
//!   `scenarios/`), its deterministic expander into a [`SessionBuilder`],
//!   and the one lowering of its stress faults to netsim fault windows.
//!
//! # Examples
//!
//! ```
//! use metaclass_core::{Activity, SessionBuilder};
//! use metaclass_netsim::{LinkClass, Region, SimDuration};
//!
//! // The paper's unit case: CWB + GZ campuses, plus learners from KAIST,
//! // MIT, and Cambridge attending through the cloud VR classroom.
//! let mut session = SessionBuilder::new()
//!     .seed(2022)
//!     .activity(Activity::Lecture)
//!     .campus("HKUST-CWB", Region::EastAsia, 10, true)
//!     .campus("HKUST-GZ", Region::EastAsia, 8, false)
//!     .remote_cohort(Region::EastAsia, 3, LinkClass::ResidentialAccess)
//!     .remote_cohort(Region::NorthAmerica, 2, LinkClass::ResidentialAccess)
//!     .remote_cohort(Region::Europe, 2, LinkClass::ResidentialAccess)
//!     .build();
//!
//! session.run_for(SimDuration::from_secs(3));
//! let report = session.report();
//! assert_eq!(report.physical_participants, 19);
//! assert_eq!(report.remote_participants, 7);
//! assert!(report.updates_sent > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod modality;
mod path;
mod report;
mod scenario;
mod session;
mod toml;

pub use metaclass_edge::protocol_codec;
pub use modality::TeachingModality;
pub use path::{mr_to_mr_budget, mr_to_vr_budget, vr_to_mr_budget, HopLatency, PathBudget};
pub use report::SessionReport;
pub use scenario::{
    FaultKind, FaultSpec, FlashCrowdSpec, MobilityEvent, PopulationSpec, ScenarioCampus,
    ScenarioCohort, ScenarioError, ScenarioPattern, ScenarioSpec, StressSpec,
};
pub use session::{
    Activity, CampusSpec, ClassroomSession, CohortSpec, Participant, PoolInfo, PoolSpec, Role,
    SessionBuilder, SessionConfig,
};
