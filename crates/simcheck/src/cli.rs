//! The `simcheck` bench-CLI subcommand.
//!
//! `bench simcheck --seed 7 --cases 200` explores random fault schedules
//! against the two-campus session spec with the standard oracle set. Output
//! is a pure function of the flags — byte-identical across reruns — and the
//! exit code is 0 only when every case passes every oracle. `--write DIR`
//! saves each shrunk violation, with the workload it was found on, as a
//! replayable regression-case JSON.

use std::io::{self, Write};
use std::path::Path;

use metaclass_core::{ScenarioError, ScenarioSpec};

use crate::explore::{explore, ExploreConfig, FoundViolation};
use crate::regress::{RegressionCase, SCHEMA_VERSION};
use crate::scenario::Scenario;

const USAGE: &str = "usage: bench simcheck [options]

Deterministic fault-schedule exploration with invariant oracles.

options:
  --seed N      master seed for schedule generation (default 7)
  --cases N     number of random schedules to run (default 200)
  --full        full-sized scenario (default is quick)
  --pooled N    add a flyweight pooled audience of N members to every
                case's spec (default 0 = population layer off); refused
                with a --scenario spec that declares its own population
  --write DIR   save each shrunk violation under DIR as a regression case
                that replays its workload (scale, pool, spec text)
  --engine E    execution engine: serial | sharded | sharded:<n>
                (results are byte-identical either way; default serial)
  --scenario F  build every case's session from a TOML workload spec
                instead of the classic two-campus spec; the spec's own
                stress faults ride along as fixed windows in every case
  --help        show this help
";

fn parse_u64(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("{flag}: '{raw}' is not a number"))
}

#[derive(Debug)]
struct CliConfig {
    explore: ExploreConfig,
    /// The `--scenario` file's text, which a written case embeds.
    scenario_text: Option<String>,
    write_dir: Option<String>,
}

fn parse(args: &[String]) -> Result<Option<CliConfig>, String> {
    let mut cfg =
        CliConfig { explore: ExploreConfig::default(), scenario_text: None, write_dir: None };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Ok(None),
            "--seed" => {
                cfg.explore.seed = parse_u64("--seed", args.get(i + 1))?;
                i += 2;
            }
            "--cases" => {
                cfg.explore.cases = parse_u64("--cases", args.get(i + 1))? as u32;
                i += 2;
            }
            "--full" => {
                cfg.explore.quick = false;
                i += 1;
            }
            "--pooled" => {
                cfg.explore.pooled = parse_u64("--pooled", args.get(i + 1))?;
                i += 2;
            }
            "--write" => {
                cfg.write_dir = Some(args.get(i + 1).ok_or("--write needs a directory")?.clone());
                i += 2;
            }
            "--engine" => {
                let raw = args.get(i + 1).ok_or("--engine needs a value")?;
                cfg.explore.engine = metaclass_netsim::parse_engine(raw).ok_or_else(|| {
                    format!(
                        "--engine: unknown engine '{raw}' (serial | sharded | sharded:<n>, \
                         2 <= n <= {})",
                        metaclass_netsim::MAX_SHARDS
                    )
                })?;
                i += 2;
            }
            "--scenario" => {
                let path = args.get(i + 1).ok_or("--scenario needs a file")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: cannot read: {e}"))?;
                let spec = ScenarioSpec::from_toml_str(&text)
                    .map_err(|e| ScenarioError { path: Some(path.clone()), ..e }.to_string())?;
                cfg.explore.scenario = Some(spec);
                cfg.scenario_text = Some(text);
                i += 2;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let explore = &cfg.explore;
    Scenario::new(explore.quick, 0, explore.scenario.clone(), explore.pooled)?;
    Ok(Some(cfg))
}

fn regression_for(v: &FoundViolation, cfg: &CliConfig) -> RegressionCase {
    RegressionCase {
        schema_version: SCHEMA_VERSION,
        description: format!(
            "shrunk from explorer case {}: {} ({})",
            v.case_index, v.violation.oracle, v.violation.detail
        ),
        quick: cfg.explore.quick,
        pooled: cfg.explore.pooled,
        scenario: cfg.scenario_text.clone(),
        session_seed: v.session_seed,
        windows: v.minimal.clone(),
        expect_violation: Some(v.violation.oracle.to_string()),
    }
}

/// Writes each violation as `shrunk-seed<S>-case<N>.json` under `dir`.
fn write_cases(dir: &str, cfg: &CliConfig, violations: &[FoundViolation]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    for v in violations {
        let name = format!("shrunk-seed{}-case{}.json", cfg.explore.seed, v.case_index);
        let path = Path::new(dir).join(name);
        std::fs::write(&path, regression_for(v, cfg).to_json() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs the subcommand, writing what it prints to stdout to `out`; flag
/// and I/O errors go to stderr. Returns the exit code: 0 when all cases
/// pass, 1 on violations, 2 on bad flags or a failed `--write`.
///
/// # Errors
///
/// A failed write to `out`.
pub fn run_to(args: &[String], out: &mut impl Write) -> io::Result<i32> {
    let cfg = match parse(args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            write!(out, "{USAGE}")?;
            return Ok(0);
        }
        Err(err) => {
            eprintln!("simcheck: {err}");
            eprint!("{USAGE}");
            return Ok(2);
        }
    };

    let scale = if cfg.explore.quick { "quick" } else { "full" };
    let pooled = if cfg.explore.pooled > 0 {
        format!(" pooled {}", cfg.explore.pooled)
    } else {
        String::new()
    };
    let scenario = match &cfg.explore.scenario {
        Some(spec) => format!(" scenario {}", spec.name),
        None => String::new(),
    };
    writeln!(
        out,
        "simcheck: seed {} cases {} scale {scale}{pooled}{scenario}",
        cfg.explore.seed, cfg.explore.cases
    )?;
    let outcome = match explore(&cfg.explore) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("simcheck: {err}");
            return Ok(2);
        }
    };
    writeln!(
        out,
        "simcheck: {} clean / {} cases, fingerprint {}",
        outcome.clean,
        outcome.cases,
        outcome.fingerprint_hex()
    )?;

    for v in &outcome.violations {
        writeln!(
            out,
            "VIOLATION case {}: {} — shrunk {} -> {} windows ({} events, {} runs)",
            v.case_index,
            v.violation,
            v.original_windows,
            v.minimal.len(),
            2 * v.minimal.len(),
            v.shrink_runs
        )?;
    }
    if let Some(dir) = &cfg.write_dir {
        if let Err(err) = write_cases(dir, &cfg, &outcome.violations) {
            eprintln!("simcheck: {err}");
            return Ok(2);
        }
        writeln!(out, "simcheck: wrote {} regression case(s) to {dir}", outcome.violations.len())?;
    }
    if outcome.violations.is_empty() {
        writeln!(out, "simcheck: OK")?;
        Ok(0)
    } else {
        writeln!(out, "simcheck: FAILED ({} violation(s))", outcome.violations.len())?;
        Ok(1)
    }
}

/// Runs the subcommand on stdout. Returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    run_to(args, &mut io::stdout()).unwrap_or_else(|err| {
        eprintln!("simcheck: stdout: {err}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_with, run_plan};
    use crate::oracle::Oracle;
    use crate::oracles::standard_oracles;
    use metaclass_netsim::{EngineConfig, PopulationTimeline, SimEvent, SimView};

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_reads_flags_and_rejects_junk() {
        let cfg = parse(&argv(&["--seed", "9", "--cases", "5", "--full", "--pooled", "32"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.explore.seed, 9);
        assert_eq!(cfg.explore.cases, 5);
        assert!(!cfg.explore.quick);
        assert_eq!(cfg.explore.pooled, 32);
        assert_eq!(cfg.explore.engine, EngineConfig::default());
        let cfg = parse(&argv(&["--engine", "sharded:2"])).unwrap().unwrap();
        assert_eq!(cfg.explore.engine, EngineConfig::sharded(2));
        assert!(parse(&argv(&["--engine", "warp"])).is_err());
        assert!(parse(&argv(&["--bogus"])).is_err());
        assert!(parse(&argv(&["--seed"])).is_err());
        assert!(parse(&argv(&["--help"])).unwrap().is_none());

        // A pooled audience above the timeline cap is a usage error, not
        // an abort while generating the population.
        let max = PopulationTimeline::MAX_MEMBERS;
        let cfg = parse(&argv(&["--pooled", &max.to_string()])).unwrap().unwrap();
        assert_eq!(cfg.explore.pooled, max);
        for over in [max + 1, u64::MAX] {
            let err = parse(&argv(&["--pooled", &over.to_string()])).unwrap_err();
            assert!(err.contains(&max.to_string()), "{err}");
        }
    }

    #[test]
    fn a_small_clean_run_exits_zero() {
        assert_eq!(run_cli(&argv(&["--seed", "7", "--cases", "2"])), 0);
    }

    #[test]
    fn scenario_flag_loads_specs_and_rejects_campusless_ones() {
        let dir = std::env::temp_dir().join(format!("simcheck_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ok = dir.join("mini.toml");
        std::fs::write(
            &ok,
            "name = \"mini\"\npattern = \"Lecture\"\nduration_ms = 1000\n\
             cloud_region = \"EastAsia\"\n\n[[campuses]]\nname = \"CWB\"\n\
             region = \"EastAsia\"\nstudents = 1\npresenter = true\n",
        )
        .unwrap();
        let cfg = parse(&argv(&["--scenario", ok.to_str().unwrap()])).unwrap().unwrap();
        assert_eq!(cfg.explore.scenario.as_ref().unwrap().name, "mini");

        let campusless = dir.join("remote_only.toml");
        std::fs::write(
            &campusless,
            "name = \"remote_only\"\npattern = \"Broadcast\"\nduration_ms = 1000\n\
             cloud_region = \"EastAsia\"\n\n[[cohorts]]\nregion = \"Europe\"\n\
             learners = 2\naccess = \"ResidentialAccess\"\n",
        )
        .unwrap();
        let err = parse(&argv(&["--scenario", campusless.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("no campuses"), "{err}");

        let missing = dir.join("nope.toml");
        assert!(parse(&argv(&["--scenario", missing.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_population_per_session() {
        let spec = |name: &str| format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
        let (broadcast, stress) = (spec("broadcast.toml"), spec("stress.toml"));
        let err = parse(&argv(&["--scenario", &broadcast, "--pooled", "40"])).unwrap_err();
        assert!(err.contains("`broadcast` declares its own stress.population"), "{err}");
        // A spec without a population takes the pool; zero adds none.
        assert!(parse(&argv(&["--scenario", &stress, "--pooled", "40"])).is_ok());
        assert!(parse(&argv(&["--scenario", &broadcast, "--pooled", "0"])).is_ok());
        let code = run_cli(&argv(&["--cases", "1", "--scenario", &broadcast, "--pooled", "40"]));
        assert_eq!(code, 2);
    }

    /// Fires when any fault window opens, so every explored case fails
    /// whether or not its workload has an open bug.
    struct AnyFault;

    impl Oracle for AnyFault {
        fn name(&self) -> &'static str {
            "any-fault"
        }

        fn on_sim_event(&mut self, _: &SimView<'_>, event: &SimEvent<'_>) -> Result<(), String> {
            match event {
                SimEvent::Fault { .. } => Err("a fault window opened".into()),
                _ => Ok(()),
            }
        }
    }

    /// `--write` saves a case for every workload kind, and the case
    /// rebuilds its workload and replays to the verdict the explorer saw,
    /// on serial and on `sharded:4`.
    #[test]
    fn written_cases_replay_their_workload_on_both_engines() {
        let factory = |scn: &Scenario| -> Vec<Box<dyn Oracle>> {
            let mut oracles = standard_oracles(scn);
            oracles.push(Box::new(AnyFault));
            oracles
        };
        let dir = std::env::temp_dir().join(format!("simcheck_write_{}", std::process::id()));
        let stress = format!("{}/../../scenarios/stress.toml", env!("CARGO_MANIFEST_DIR"));
        let workloads = [
            ("classic", &[][..]),
            ("pooled", &["--pooled", "40"][..]),
            ("scenario", &["--scenario", &stress][..]),
        ];
        for (kind, extra) in workloads {
            let kind_dir = dir.join(kind);
            let write = ["--cases", "2", "--write", kind_dir.to_str().unwrap()];
            let cfg = parse(&argv(&[&write[..], extra].concat())).unwrap().unwrap();
            let outcome = explore_with(&cfg.explore, &factory).unwrap();
            assert_eq!(outcome.violations.len(), 2, "{kind}: every case opens a fault");
            write_cases(cfg.write_dir.as_deref().unwrap(), &cfg, &outcome.violations).unwrap();
            for v in &outcome.violations {
                let name = format!("shrunk-seed7-case{}.json", v.case_index);
                let json = std::fs::read_to_string(kind_dir.join(&name)).unwrap();
                let case = RegressionCase::from_json(&json).unwrap();
                assert_eq!(case.pooled, cfg.explore.pooled, "{kind}");
                assert_eq!(case.scenario, cfg.scenario_text, "{kind}");
                assert_eq!(case.expect_violation.as_deref(), Some(v.violation.oracle));
                for engine in [EngineConfig::serial(), EngineConfig::sharded(4)] {
                    let mut scn = case.scenario().unwrap();
                    scn.engine = engine;
                    let replay = run_plan(&scn, &case.windows, factory(&scn)).violation;
                    let verdict = replay.map(|x| x.oracle);
                    assert_eq!(verdict, Some(v.violation.oracle), "{kind} {name} on {engine:?}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
