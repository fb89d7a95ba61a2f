#!/usr/bin/env bash
# A/A check: runs the same build twice over the same seeds and reports, for
# every end-to-end metric of every workload, the run-to-run spread of each
# set (interquartile range over median) and how far the second set's median
# is from the first, against the bound in BENCHMARK.json.
#
#   benchmark/aa.sh [--runs N] [--first-seed S] [--workload W]
#
# Ten runs per set by default, seeds S..S+N-1. Exits non-zero if a spread or
# a median shift exceeds its bound (setup_s is exempt from the spread rule,
# as in the acceptance procedure), or if the simulated metrics of the two
# sets differ at all.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

exec python3 - "$here" "$@" <<'PY'
import json, statistics, subprocess, sys

here, args = sys.argv[1], sys.argv[2:]
opts = {"--runs": "10", "--first-seed": "1", "--workload": None}
while args:
    flag = args.pop(0)
    if flag not in opts or not args:
        sys.exit(f"aa.sh: bad argument {flag!r}")
    opts[flag] = args.pop(0)
runs, first = int(opts["--runs"]), int(opts["--first-seed"])

spec = json.load(open(f"{here}/../BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"] if opts["--workload"] in (None, w["name"])]

def one(workload, seed):
    out = subprocess.run(
        ["bash", f"{here}/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(workload, seed, " ".join(f"{k}={v:.6g}" for k, v in values.items()), file=sys.stderr, flush=True)
    return values

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

bad = 0
print(f"{'workload':24} {'metric':20} {'median A':>12} {'median B':>12} {'shift':>8} "
      f"{'spread A':>9} {'spread B':>9} {'bound':>6}")
for workload in workloads:
    sets = [[one(workload, first + i) for i in range(runs)] for _ in range(2)]
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = ([run[name] for run in s] for s in sets)
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
        spreads = [spread(a), spread(b)]
        flags = []
        if worse > bound:
            flags.append("SHIFT")
        if name != "setup_s" and max(spreads) > bound:
            flags.append("SPREAD")
        if name.startswith("sim_") and a != b:
            flags.append("SIM-DIFFERS")
        bad += bool(flags)
        print(f"{workload:24} {name:20} {med_a:12.6g} {med_b:12.6g} {worse:+8.2%} "
              f"{spreads[0]:9.2%} {spreads[1]:9.2%} {bound:6.1%} {' '.join(flags)}", flush=True)
sys.exit(1 if bad else 0)
PY
