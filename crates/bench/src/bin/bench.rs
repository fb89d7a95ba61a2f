//! The single experiment driver: runs any registered experiment (E1–E15) as
//! a parallel, deterministic multi-seed sweep, and verifies or re-blesses
//! the committed baselines.
//!
//! ```text
//! bench --list
//! bench --exp e3                         # 8-seed quick look
//! bench --exp e3 --seeds 32 --jobs 8 --json
//! bench --exp all --seeds 4 --quick --json
//! bench --validate results/BENCH_e3.json
//! bench verify                           # every contract x every engine vs its committed file
//! bench verify --bless                   # rewrite the contracts (engines must agree)
//! bench simcheck --seed 7 --cases 200    # invariant-oracle fuzzing
//! ```
//!
//! With `--json`, each sweep writes `results/BENCH_<exp>.json` — a
//! schema-versioned document whose bytes depend only on the experiment,
//! scale, and seed list (never on `--jobs` or wall-clock).

use std::process::ExitCode;
use std::time::Instant;

use metaclass_bench::experiments::scenario::ScenarioExperiment;
use metaclass_bench::sweep::{run_sweep, validate_json, SweepConfig};
use metaclass_bench::{default_jobs, experiments, verify, Experiment, Scale};
use metaclass_core::ScenarioSpec;
use metaclass_netsim::EngineConfig;

/// The repository's scenario registry directory.
const SCENARIO_DIR: &str = "scenarios";

struct Args {
    exp: Option<String>,
    seeds: u64,
    jobs: usize,
    quick: bool,
    json: bool,
    list: bool,
    engine: EngineConfig,
    validate: Vec<String>,
    scenarios: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench --exp <id|all> [--seeds N] [--jobs N] [--quick] [--json] [--engine E]\n\
         \x20      bench --scenario FILE [--scenario FILE ...]\n\
         \x20      bench --list\n\
         \x20      bench --validate FILE...\n\
         \x20      bench verify [--bless]\n\
         \x20      bench simcheck [--seed N] [--cases N] [--full] [--write DIR] [--engine E]\n\
         \x20                     [--pooled N] [--scenario FILE]\n\
         \n\
         \x20 --exp <id|all>   experiment to sweep (e1..e15), or every one\n\
         \x20 --scenario FILE  sweep a TOML workload spec (repeatable)\n\
         \x20 --seeds N        number of independent seeds (default 8)\n\
         \x20 --jobs N         worker threads (default: available cores)\n\
         \x20 --quick          reduced scale (same path cargo tests use)\n\
         \x20 --json           write results/BENCH_<exp>.json\n\
         \x20 --engine E       simulation executor: serial | sharded | sharded:<n>\n\
         \x20                  (byte-identical results either way; default serial)\n\
         \x20 --list           list registered experiments + scenarios/ specs\n\
         \x20 --validate       check BENCH_*.json documents and *.toml scenario\n\
         \x20                  specs (dispatched by extension)\n\
         \x20 verify           regenerate every contract (BENCH documents, scenario\n\
         \x20                  fingerprints, simcheck transcripts) under serial, sharded:2\n\
         \x20                  and sharded:4 and compare with the committed files;\n\
         \x20                  --bless rewrites them all when all engines agree"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        exp: None,
        seeds: 8,
        jobs: default_jobs(),
        quick: false,
        json: false,
        list: false,
        engine: EngineConfig::default(),
        validate: Vec::new(),
        scenarios: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--exp" => args.exp = Some(it.next().unwrap_or_else(|| usage())),
            "--seeds" => {
                args.seeds = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                if args.seeds == 0 {
                    eprintln!("--seeds must be at least 1");
                    std::process::exit(2);
                }
            }
            "--jobs" => {
                args.jobs = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                if args.jobs == 0 {
                    eprintln!("--jobs must be at least 1");
                    std::process::exit(2);
                }
            }
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--quick" => args.quick = true,
            "--engine" => {
                let raw = it.next().unwrap_or_else(|| usage());
                match metaclass_netsim::parse_engine(&raw) {
                    Some(engine) => args.engine = engine,
                    None => {
                        eprintln!(
                            "--engine: unknown engine {raw:?} (serial | sharded | sharded:<n>, \
                             2 <= n <= {})",
                            metaclass_netsim::MAX_SHARDS
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--scenario" => args.scenarios.push(it.next().unwrap_or_else(|| usage())),
            "--validate" => {
                args.validate.extend(it.by_ref());
                if args.validate.is_empty() {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    args
}

/// `bench verify [--bless]`.
fn run_verify(args: &[String]) -> ExitCode {
    let bless = match args {
        [] => false,
        [flag] if flag == "--bless" => true,
        _ => usage(),
    };
    let root = std::path::Path::new(".");
    let contracts = match verify::contracts(root) {
        Ok(contracts) => contracts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let what = format!("{} x [{}]", verify::summary(&contracts), verify::ENGINES.join(", "));
    let result =
        if bless { verify::bless(&contracts, root) } else { verify::verify(&contracts, root) };
    match result {
        Ok(_) if bless => println!("verify: {what} agree; wrote every committed file"),
        Ok(_) => println!("verify: {what} byte-identical to the committed files"),
        Err(lines) => {
            for line in &lines {
                eprintln!("{line}");
            }
            if bless {
                eprintln!("verify: an engine disagrees with serial; nothing written");
            } else {
                eprintln!("verify: FAILED (after an intended output change: bench verify --bless)");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // `bench simcheck ...` and `bench verify ...` dispatch before the
    // sweep-flag parser sees anything.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("simcheck") => return ExitCode::from(metaclass_simcheck::run_cli(&argv[1..]) as u8),
        Some("verify") => return run_verify(&argv[1..]),
        _ => {}
    }

    let args = parse_args();

    if args.list {
        match verify::contracts(std::path::Path::new(".")) {
            Ok(all) => {
                println!("id     title");
                for e in all.iter().filter_map(verify::Contract::experiment) {
                    println!("{:<6} {}", e.id(), e.title());
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    if !args.validate.is_empty() {
        let mut failed = false;
        for path in &args.validate {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{path}: unreadable: {e}");
                    failed = true;
                    continue;
                }
            };
            if path.ends_with(".toml") {
                // Scenario specs validate through the DSL loader, which
                // reports the offending path and line.
                match ScenarioSpec::load(std::path::Path::new(path)) {
                    Ok(spec) => println!(
                        "{path}: ok (scenario `{}`, {:?} pattern, {} campuses, {} cohorts)",
                        spec.name,
                        spec.pattern,
                        spec.campuses.len(),
                        spec.cohorts.len()
                    ),
                    Err(e) => {
                        eprintln!("{e}");
                        failed = true;
                    }
                }
                continue;
            }
            match validate_json(&text) {
                Ok(doc) => println!(
                    "{path}: ok ({} over {} seeds, {} metrics, fingerprint {})",
                    doc.experiment,
                    doc.seeds.len(),
                    doc.metrics.len(),
                    doc.fingerprint
                ),
                Err(e) => {
                    eprintln!("{path}: INVALID: {e}");
                    failed = true;
                }
            }
        }
        return if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }

    if args.exp.is_none() && args.scenarios.is_empty() {
        usage()
    }
    let scale = Scale::from_quick_flag(args.quick);
    let mut targets: Vec<&'static dyn Experiment> = Vec::new();
    if let Some(exp_arg) = &args.exp {
        if exp_arg.eq_ignore_ascii_case("all") {
            targets.extend(experiments::all());
        } else if let Some(e) = experiments::by_id(exp_arg) {
            targets.push(e);
        } else if let Some(name) = exp_arg.strip_prefix("scenario_") {
            // File-registered scenarios are addressable by their sweep id.
            let path = std::path::Path::new(SCENARIO_DIR).join(format!("{name}.toml"));
            match ScenarioExperiment::from_file(&path) {
                Ok(s) => targets.push(Box::leak(Box::new(s))),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            eprintln!("unknown experiment {exp_arg:?}; try --list");
            return ExitCode::FAILURE;
        }
    }
    for path in &args.scenarios {
        match ScenarioExperiment::from_file(std::path::Path::new(path)) {
            Ok(s) => targets.push(Box::leak(Box::new(s))),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for exp in targets {
        let cfg = SweepConfig::first_n(args.seeds, args.jobs, scale).with_engine(args.engine);
        println!(
            "== {} — {} ({} seeds, {} scale, {} jobs)",
            exp.id(),
            exp.title(),
            cfg.seeds.len(),
            scale,
            cfg.jobs
        );
        let started = Instant::now();
        let out = run_sweep(exp, &cfg);
        let elapsed = started.elapsed();

        // The first run's tables, as the representative single-run view.
        if let Some(first) = out.reports.first() {
            print!("{}", first.render());
        }
        println!("{}", out.doc.stats_table());
        println!(
            "fingerprint {}  ({} runs in {:.2} s)",
            out.doc.fingerprint,
            out.reports.len(),
            elapsed.as_secs_f64()
        );
        if args.json {
            match out.doc.write_to(std::path::Path::new("results")) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write results: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}
