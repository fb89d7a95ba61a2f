//! The paper's unit case (Figure 2): a lecture shared between the HKUST
//! Clear Water Bay and Guangzhou campuses, with remote learners from KAIST,
//! MIT, and Cambridge attending through the cloud VR classroom.
//!
//! Prints the analytic per-hop latency budget for every Figure-3 path, then
//! runs the session and prints the measured counterpart, the classroom
//! state as seen from each room, and the modality comparison of Figure 1.
//!
//! Run with: `cargo run --release --example hybrid_lecture`

use metaclassroom::core::{
    mr_to_mr_budget, mr_to_vr_budget, vr_to_mr_budget, Activity, Role, SessionBuilder,
    TeachingModality,
};
use metaclassroom::edge::{CloudServerNode, EdgeServerNode, ServerConfig};
use metaclassroom::netsim::{LinkClass, Region, SimDuration};

fn main() {
    let mut session = SessionBuilder::new()
        .seed(2022)
        .activity(Activity::Lecture)
        .cloud_region(Region::EastAsia)
        .campus("HKUST-CWB", Region::EastAsia, 12, true)
        .campus("HKUST-GZ", Region::EastAsia, 10, false)
        .remote_cohort(Region::EastAsia, 4, LinkClass::ResidentialAccess) // KAIST
        .remote_cohort(Region::NorthAmerica, 3, LinkClass::ResidentialAccess) // MIT
        .remote_cohort(Region::Europe, 3, LinkClass::ResidentialAccess) // Cambridge
        .build();

    println!("== analytic per-hop budgets (Figure 3) ==\n");
    let tick = SimDuration::from_rate_hz(ServerConfig::TICK_HZ);
    println!("{}", mr_to_mr_budget(Region::EastAsia, Region::EastAsia, tick));
    println!("{}", mr_to_vr_budget(Region::EastAsia, Region::EastAsia, Region::NorthAmerica, tick));
    println!("{}", vr_to_mr_budget(Region::Europe, Region::EastAsia, Region::EastAsia));

    println!("running a 30 s hybrid lecture with {} participants...", session.participants().len());
    session.run_for(SimDuration::from_secs(30));
    println!("\n== measured ==\n\n{}", session.report());

    // What each room sees.
    let edges: Vec<_> = session.edges().to_vec();
    for (i, edge) in edges.iter().enumerate() {
        let name = &session.campuses()[i].name;
        let server = session.sim().node_as::<EdgeServerNode>(*edge).unwrap();
        println!(
            "{name}: {} remote avatars seated locally ({} seats occupied)",
            server.remote_count(),
            server.seats().occupancy(),
        );
    }
    let cloud = session.sim().node_as::<CloudServerNode>(session.cloud()).unwrap();
    println!("cloud VR classroom population: {}", cloud.population());

    let presenters =
        session.participants().iter().filter(|p| matches!(p.role, Role::Presenter { .. })).count();
    println!("presenters on podiums: {presenters}");

    println!("\n== the survey's modality comparison (Figure 1) ==\n");
    println!(
        "{:<24} {:>8} {:>10} {:>8} {:>11}",
        "modality", "remote", "immersive", "blended", "engagement"
    );
    for m in TeachingModality::ALL {
        println!(
            "{:<24} {:>8} {:>10} {:>8} {:>11.2}",
            m.to_string(),
            if m.remote_access() { "yes" } else { "no" },
            if m.immersive_3d() { "yes" } else { "no" },
            if m.blends_physical_and_virtual() { "yes" } else { "no" },
            m.engagement_score(),
        );
    }
}
