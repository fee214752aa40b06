"""Check that two source trees write the same outputs and do the same work.

    python3 scripts/same_outputs.py --parent <tree> --change <tree> \
        [--runs sweep-rimless:1-11:0-11 --runs certify-rimless:1-3:0-2 ...]

Each tree is a checkout with `bench/` and `src/`, for example a `git
archive` export of the parent commit next to the working tree.  Every
`--runs WORKLOAD:SEEDS:ROUNDS` (ranges as 'A-B' or 'A') names benchmark
rounds; without any, each workload runs seed 1, round 0.  The script:

- generates every invocation config once, from the parent tree's
  `bench/workloads.py`, and adds the five commands (simulate, orbit,
  certify-prop1, iss-sweep, validate) on both golden configs under the
  parent's `tests/golden/`;
- runs them in one child process per tree, through that tree's
  `sie.cli.main`, with that tree's `src` first on the path (this script
  never imports `sie`);
- compares the exit codes and every output file byte for byte, except the
  `timestamp` of `meta.json`.  For a file that differs it names the first
  differing row and column (CSV) or key (JSON) and the largest relative
  move of any number in the file;
- compares each workload's traced counts: the `# counts` line of each
  tree's `bench/run.py --trace 1` at the workload's first seed.

It prints the differences and one summary line, and exits 0 only when
nothing differs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gate_scan import load_runner, span

GOLDEN_COMMANDS = ("simulate", "orbit", "certify-prop1", "iss-sweep", "validate")
TRACE_SECONDS = "1"
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

# runs in the child: argv is (src dir, jobs file, results file); each job is
# an argv for sie.cli.main, its result the exit code or the exception raised
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
src, jobs_path, results_path = sys.argv[1:]
sys.path.insert(0, src)
import sie.cli
if Path(sie.cli.__file__).resolve().parent != (Path(src) / "sie").resolve():
    sys.exit(f"imported sie from {sie.cli.__file__}, not from {src}")
results = []
for argv in json.loads(Path(jobs_path).read_text()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            results.append(sie.cli.main(argv))
        except BaseException as exc:  # noqa: BLE001 - recorded and compared
            results.append(f"raised {type(exc).__name__}: {exc}")
Path(results_path).write_text(json.dumps(results))
"""


def run_spec(text: str) -> tuple[str, range, range]:
    """'WORKLOAD:SEEDS:ROUNDS' as (workload, seeds, rounds)."""
    try:
        workload, seeds, rounds = text.split(":")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS:ROUNDS, got {text!r}") from None
    return workload, span(seeds), span(rounds)


def plan(parent: Path, workloads: dict, runs: list[tuple[str, range, range]],
         configs: Path) -> list[tuple]:
    """(name, command, config path, extra argv) of every invocation; the
    configs are written once, for both trees."""
    jobs = []
    for name, seeds, rounds in runs:
        if name not in workloads:
            raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads)}")
        for seed in seeds:
            for r in rounds:
                for i, inv in enumerate(workloads[name].round(seed, r)):
                    job = f"{name}-s{seed}-r{r}-{i}"
                    path = configs / f"{job}.json"
                    path.write_text(json.dumps(inv.config), encoding="utf-8")
                    jobs.append((job, inv.command, path, tuple(inv.argv)))
    for model_dir in sorted((parent / "tests" / "golden").iterdir()):
        for command in GOLDEN_COMMANDS:
            jobs.append((f"golden-{model_dir.name}-{command}", command,
                         model_dir / "config.json", ()))
    return jobs


def run_tree(tree: Path, jobs: list[tuple], out: Path, trace: list[tuple[str, int]]) -> dict:
    """Every job through the tree's CLI in one child, then one traced bench
    run per (workload, seed); returns the exit codes and the counts."""
    argvs = []
    for job, command, config, extra in jobs:
        (out / job).mkdir(parents=True)
        argvs.append([command, "--config", str(config), "--out", str(out / job), *extra])
    jobs_path, results_path = out / "jobs.json", out / "results.json"
    jobs_path.write_text(json.dumps(argvs))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tree / "src"), str(jobs_path),
                           str(results_path)], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the CLI child failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    exits = dict(zip((j[0] for j in jobs), json.loads(results_path.read_text())))
    counts = {}
    for workload, seed in trace:
        argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", TRACE_SECONDS, "--trace", "1"]
        bench = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
        line = next((ln for ln in bench.stdout.splitlines() if ln.startswith("# counts ")), None)
        counts[f"{workload} seed {seed}"] = {
            "exit": bench.returncode, "counts": json.loads(line[len("# counts "):]) if line else None}
    return {"exits": exits, "counts": counts}


def rel_move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(a: str, b: str) -> str:
    rows_a, rows_b = a.splitlines(), b.splitlines()
    first = None
    largest = 0.0
    for k, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if ra == rb:
            continue
        cells_a, cells_b = ra.split(","), rb.split(",")
        if first is None:
            header = rows_a[0].split(",")
            col = next((j for j, (x, y) in enumerate(zip(cells_a, cells_b)) if x != y),
                       min(len(cells_a), len(cells_b)))
            name = header[col] if k and col < len(header) else f"column {col}"
            first = f"row {k} ({'header' if k == 0 else name}): {ra!r} vs {rb!r}"[:300]
        for x, y in zip(cells_a, cells_b):
            nx, ny = number(x), number(y)
            if nx is not None and ny is not None:
                largest = max(largest, rel_move(nx, ny))
    if len(rows_a) != len(rows_b):
        first = first or f"row {min(len(rows_a), len(rows_b))}: present on one side only"
        first += f"; {len(rows_a)} rows vs {len(rows_b)}"
    return f"first difference at {first}; largest relative move {largest:.3g}"


def json_diffs(a, b, where: str, found: list[str]) -> float:
    """Appends the key paths that differ to found; returns the largest
    relative move of a number between the two."""
    if isinstance(a, dict) and isinstance(b, dict):
        moves = [json_diffs(a[k], b[k], f"{where}.{k}", found) for k in sorted(a.keys() & b.keys())]
        found += [f"{where}.{k} (one side only)" for k in sorted(a.keys() ^ b.keys())]
        return max(moves, default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((json_diffs(x, y, f"{where}[{i}]", found) for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if type(a) is not type(b) or a != b:
        found.append(f"{where}: {a!r} vs {b!r}"[:300])
        return rel_move(float(a), float(b)) if numeric else 0.0
    return 0.0


def compare_file(name: str, a: bytes, b: bytes) -> str | None:
    if name == "meta.json":
        a, b = (TIMESTAMP.sub(b'"timestamp": ""', x) for x in (a, b))
    if a == b:
        return None
    if name.endswith(".csv"):
        return compare_csv(a.decode(), b.decode())
    if name.endswith(".json"):
        found: list[str] = []
        largest = json_diffs(json.loads(a), json.loads(b), name, found)
        first = found[0] if found else "byte layout"
        return f"first difference at {first}; largest relative move {largest:.3g}"
    return "bytes differ"


def compare(jobs: list[tuple], outs: dict[str, Path], results: dict[str, dict]) -> tuple[list, int]:
    problems = []
    files = 0
    for job, *_ in jobs:
        ea, eb = results["parent"]["exits"][job], results["change"]["exits"][job]
        if ea != eb:
            problems.append(f"{job}: exit {ea!r} vs {eb!r}")
        dirs = {side: outs[side] / job for side in outs}
        names = sorted({p.relative_to(d).as_posix() for d in dirs.values()
                        for p in d.rglob("*") if p.is_file()})
        for name in names:
            pa, pb = dirs["parent"] / name, dirs["change"] / name
            files += 1
            if not (pa.is_file() and pb.is_file()):
                problems.append(f"{job}/{name}: written on one side only")
                continue
            diff = compare_file(Path(name).name, pa.read_bytes(), pb.read_bytes())
            if diff:
                problems.append(f"{job}/{name}: {diff}")
    for key, got in results["parent"]["counts"].items():
        want = results["change"]["counts"][key]
        if got["exit"] or want["exit"]:
            problems.append(f"traced {key}: exit {got['exit']} vs {want['exit']}")
        a, b = got["counts"] or {}, want["counts"] or {}
        moved = [f"{k} {a.get(k)} vs {b.get(k)}" for k in sorted(a.keys() | b.keys())
                 if a.get(k) != b.get(k)]
        if moved:
            problems.append(f"traced {key}: counts differ: {', '.join(moved)}")
    return problems, files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--runs", type=run_spec, action="append", default=[],
                        help="WORKLOAD:SEEDS:ROUNDS, repeatable (default: every workload at 1:0)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "sie" / "__init__.py").is_file():
            parser.error(f"--{side} {tree} has no src/sie")

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as scratch:
        scratch = Path(scratch)
        (scratch / "configs").mkdir()
        workloads = load_runner(trees["parent"]).WORKLOADS
        runs = args.runs or [(name, range(1, 2), range(0, 1)) for name in workloads]
        jobs = plan(trees["parent"], workloads, runs, scratch / "configs")
        trace = [(name, seeds.start) for name, seeds, _ in runs]
        outs = {side: scratch / side for side in trees}
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            futures = {side: pool.submit(run_tree, trees[side], jobs, outs[side], trace)
                       for side in trees}
            results = {side: f.result() for side, f in futures.items()}
        problems, files = compare(jobs, outs, results)
    for problem in problems:
        print(f"DIFF {problem}")
    ranges = " ".join(f"{n}:{s.start}-{s.stop - 1}:{r.start}-{r.stop - 1}" for n, s, r in runs)
    print(f"same_outputs: {len(problems)} differences over {len(jobs)} invocations, {files} files "
          f"and {len(trace)} traced count sets ({ranges} + golden); "
          f"{time.perf_counter() - start:.0f} s on {os.cpu_count()} cpus")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
