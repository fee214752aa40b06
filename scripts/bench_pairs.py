"""Paired benchmark runs of two source trees, recorded as a BENCH_*.json.

    python3 scripts/bench_pairs.py --parent <tree> --change <tree> --out BENCH_<n>.json \
        --workload <name> --seeds 1,2,3 [--seconds 30] [--trace] [--held-out <seed>]

Each tree is a checkout with `bench/run.py` and `src/`, for example a
`git archive` export of the parent commit next to the working tree.  For
every seed the script runs `python3 bench/run.py --workload <name> --seed
<seed> --seconds <s> --trace 0` once in each tree, one run after the other,
and alternates which tree goes first from pair to pair.  With --trace it
adds one traced pair (`--trace 1`, first seed).  The result lines are
appended to the output file's `runs`, and `summary` is recomputed from all
untraced runs of each workload: per end-to-end metric, the parent's and the
change's median and quartiles over the pairs and how many pairs the change
won.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

LOWER_IS_BETTER = {"setup_s": True, "wall_s": True, "items_per_s": False, "cpu_s": True,
                   "peak_rss_mb": True}


def run_one(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_1m": os.getloadavg()[0]}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0
                 and not r.get("note")]
        seeds = sorted({r["seed"] for r in plain})
        pairs = []
        for seed in seeds:
            sides = {r["side"]: r["result"]["metrics"] for r in plain if r["seed"] == seed}
            if {"parent", "change"} <= set(sides):
                pairs.append((sides["parent"], sides["change"]))
        entry = {"pairs": len(pairs), "seeds": seeds}
        for metric, lower in LOWER_IS_BETTER.items():
            par = [p[metric]["value"] for p, _ in pairs]
            chg = [c[metric]["value"] for _, c in pairs]
            if len(pairs) < 2:
                continue
            q_par = statistics.quantiles(par, n=4, method="inclusive")
            q_chg = statistics.quantiles(chg, n=4, method="inclusive")
            entry[metric] = {
                "parent_median": statistics.median(par),
                "parent_quartiles": [q_par[0], q_par[2]],
                "change_median": statistics.median(chg),
                "change_quartiles": [q_chg[0], q_chg[2]],
                "change_wins": sum((c < p) if lower else (c > p) for p, c in zip(par, chg)),
            }
        summary[workload] = entry
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", default=Path("."), type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--held-out", type=int, help="a seed among --seeds that was chosen last")
    ap.add_argument("--parent-commit", default="")
    args = ap.parse_args()

    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "bench/run.py result lines for every run made on the parent commit and on "
                "this change, parent and change alternating which runs first within each pair",
        "command": "python3 bench/run.py --workload <W> --seed <N> --seconds <S> --trace <0|1>",
        "parent_commit": args.parent_commit, "machine": machine(), "held_out_seed": {},
        "summary": {}, "runs": []}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = [int(s) for s in args.seeds.split(",")]
    plan = [(seed, 0) for seed in seeds] + ([(seeds[0], 1)] if args.trace else [])
    for i, (seed, trace) in enumerate(plan):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_one(trees[side], args.workload, seed, args.seconds, trace)
            doc["runs"].append({"side": side, "workload": args.workload, "seed": seed,
                                "seconds": args.seconds, "trace": trace, "result": result})
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"{args.workload} seed={seed} trace={trace} {side}: wall_s={wall}", flush=True)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.held_out is not None:
        doc["held_out_seed"][args.workload] = args.held_out
    doc["summary"] = summarize(doc["runs"])
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["summary"].get(args.workload, {}), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
