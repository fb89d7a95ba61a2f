//! `metabench`: runs one workload and prints its metrics.
//!
//! ```text
//! metabench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! metabench --list
//! ```
//!
//! One process measures one workload, so `VmHWM` is that workload's peak.
//! `run.sh` builds this binary and starts one process per workload.

use std::process::ExitCode;

use metabench::alloc::CountingAlloc;
use metabench::names::{END_TO_END, PER_LAYER};
use metabench::report::{detail_line, result_line, spans_json, Host};
use metabench::run::run_timed;
use metabench::trace::run_traced;
use metabench::workloads::{Size, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: metabench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n       metabench --list",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::RemoteCohort,
        seed: 1,
        seconds: 10.0,
        traced: false,
        size: Size::Full,
        out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.size = Size::Smoke,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        Workload::ALL.iter().for_each(|w| println!("{}", w.name()));
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("metabench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // A smoke run spends a token second timing; the passes are what shrink.
    let seconds = if args.size == Size::Smoke { args.seconds.min(0.5) } else { args.seconds };

    let name = args.workload.name();
    let (outcome, names): (_, &[(&str, &str)]) = if args.traced {
        let (outcome, spans) = run_traced(args.workload, args.seed, args.size);
        if let Some(dir) = &args.out {
            let path = std::path::Path::new(dir).join(format!("trace_{name}.json"));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, spans_json(name, args.seed, spans.spans())));
            if let Err(e) = written {
                eprintln!("metabench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        (outcome, &PER_LAYER)
    } else {
        (run_timed(args.workload, args.seed, seconds, args.size), &END_TO_END)
    };

    for check in outcome.checks.iter().filter(|c| !c.ok) {
        eprintln!("metabench: FAILED check on {name}: {} ({})", check.name, check.detail);
    }
    println!("{}", detail_line(name, args.seed, args.traced, &outcome, names, &Host::detect()));
    println!("{}", result_line(&outcome, names));
    if outcome.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
