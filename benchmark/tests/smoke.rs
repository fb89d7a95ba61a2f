//! Every workload end to end at smoke size: the timed run, the traced run,
//! and the self-checks that feed `failed`.

use metabench::alloc::CountingAlloc;
use metabench::names::END_TO_END;
use metabench::run::run_timed;
use metabench::trace::run_traced;
use metabench::workloads::{Size, Workload};

// As in the metabench binary, so that `allocs_per_sim_s` reads non-zero.
// The tests here run on parallel threads and share the counter, so only
// its being positive is asserted; `alloc_gate.rs` checks exact counts.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn timed_runs_print_every_end_to_end_metric_and_pass_their_checks() {
    let mut fingerprints = Vec::new();
    for workload in Workload::ALL {
        let out = run_timed(workload, 2, 0.05, Size::Smoke);
        for check in &out.checks {
            assert!(check.ok, "{}: {} ({})", workload.name(), check.name, check.detail);
        }
        assert_eq!(out.failed(), 0);
        assert!(out.attempted() > out.passes, "checks count as operations");
        for (name, _) in END_TO_END {
            let value = out.metrics.get(name).unwrap_or_else(|| panic!("{name} missing")).value;
            assert!(value.is_finite() && value > 0.0, "{} {name} = {value}", workload.name());
        }
        fingerprints.push(out.fingerprint);
    }
    // The sharded workload must reproduce the serial model exactly.
    assert_eq!(fingerprints[1], fingerprints[2]);
    assert_ne!(fingerprints[0], fingerprints[1]);
}

#[test]
fn the_seed_is_an_input() {
    let a = run_timed(Workload::BlendedCampus, 1, 0.01, Size::Smoke);
    let b = run_timed(Workload::BlendedCampus, 1, 0.01, Size::Smoke);
    let c = run_timed(Workload::BlendedCampus, 2, 0.01, Size::Smoke);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_ne!(a.fingerprint, c.fingerprint);
}

#[test]
fn traced_runs_pass_their_checks_and_attribute_time_to_the_designed_layers() {
    for workload in Workload::ALL {
        let (out, spans) = run_traced(workload, 2, Size::Smoke);
        for check in &out.checks {
            assert!(check.ok, "{}: {} ({})", workload.name(), check.name, check.detail);
        }
        let value = |name: &str| out.metrics.get(name).map_or(0.0, |m| m.value);
        let spans = spans.spans();
        assert_eq!(spans[0].name, workload.name());
        assert!(spans.iter().skip(1).all(|s| s.parent.is_some() && s.end_us >= s.start_us));
        match workload {
            Workload::RemoteCohort | Workload::BlendedCampus | Workload::PlanetPool => {
                assert!(value("trace.coverage") >= 0.9, "{}", value("trace.coverage"));
                assert!(value("netsim.sim.events") > 0.0);
                assert!(value("edge.cloud.steps") > 0.0);
            }
            Workload::BlendedCampusSharded2 => {
                assert!(value("netsim.shard.windows") > 0.0);
                assert_eq!(value("netsim.shard.fallback_serial"), 0.0);
                assert!(value("netsim.shard.speedup") > 0.0);
            }
            Workload::ScenarioSweep => {
                assert!(value("bench.sweep.jobs1_wall_ms") > 0.0);
                assert!(value("bench.sweep.parallel_efficiency") > 0.0);
            }
        }
        if workload == Workload::BlendedCampus {
            assert_eq!(value("edge.client.steps"), 0.0, "no remote audience");
            assert_eq!(value("edge.pool.steps"), 0.0);
        }
        if workload == Workload::PlanetPool {
            assert!(value("edge.pool.steps") > 0.0);
            assert!(value("edge.overload.pool_joins_admitted") > 0.0);
        }
        assert!(value("netsim.sched.push_pop_ns") > 0.0, "kernels run on every workload");
    }
}
