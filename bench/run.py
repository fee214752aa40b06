"""Benchmark of the `sie` CLI workflows.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One closed-loop client in one process calls
`sie.cli.main(argv)` in-process, one invocation after another, on JSON
configs generated from --seed.  Every output is checked against closed-form
oracles.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics from an outside-in traced replay with --trace 1.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, Invocation, Workload  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """No result: no source tree here, or a set-up child failed its gate."""


def import_sie():
    if not (SRC / "sie" / "__init__.py").is_file():
        raise BenchError(f"no sie package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sie
    import sie.cli
    if Path(sie.__file__).resolve().parent != (SRC / "sie").resolve():
        raise BenchError(f"imported sie from {sie.__file__}, not from {SRC}")
    return sie


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def machine_facts() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_1m": os.getloadavg()[0]}


@dataclass(frozen=True)
class RoundResult:
    wall_s: float
    cpu_s: float
    items: int
    failed: int
    bytes_written: int
    problems: tuple[str, ...]


def run_invocation(cli, inv: Invocation, out: Path) -> tuple[int, float, float, str]:
    """One CLI call on a fresh output directory: (exit code, wall, cpu, output)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out.with_suffix(".json")
    config.write_text(json.dumps(inv.config), encoding="utf-8")
    argv = [inv.command, "--config", str(config), "--out", str(out), *inv.argv]
    captured = io.StringIO()
    c0 = cpu_seconds()
    t0 = perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        rc = cli.main(argv)
    wall = perf_counter() - t0
    return rc, wall, cpu_seconds() - c0, captured.getvalue()


def run_round(cli, invocations: list[Invocation], scratch: Path) -> RoundResult:
    wall = cpu = 0.0
    items = failed = written = 0
    problems: list[str] = []
    for i, inv in enumerate(invocations):
        out = scratch / f"call{i}"
        rc, w, c, text = run_invocation(cli, inv, out)
        gate = inv.check(rc, out)
        wall += w
        cpu += c
        items += inv.items
        failed += gate.failed
        written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        problems.extend(f"{inv.command}: {p} [{text.strip()[-200:]}]" for p in gate.problems)
    return RoundResult(wall, cpu, items, failed, written, tuple(problems))


def setup_child(workload: Workload, seed: int, scratch: Path) -> int:
    """Process start to ready: import sie, generate configs, one warm-up call."""
    sie = import_sie()
    workload.round(seed, 0)
    result = run_round(sie.cli, workload.warmup(seed), scratch)
    print("ready" if not result.problems else f"failed: {result.problems}", flush=True)
    return 0 if not result.problems else 1


def measure_setup(workload: Workload, seed: int, scratch: Path) -> list[float]:
    """Wall time from spawning a fresh interpreter to its `ready` line."""
    times = []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
                "--workload", workload.name, "--seed", str(seed),
                "--scratch", str(scratch / f"setup{k}")]
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            try:
                readable, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
                line = proc.stdout.readline().strip() if readable else "timed out"
                ready = perf_counter() - t0
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                line = "timed out"
            finally:
                if proc.poll() is None:
                    proc.kill()
        if proc.returncode != 0 or line != "ready":
            raise BenchError(f"set-up child failed ({proc.returncode}): {line}")
        times.append(ready)
    return times


def measure(cli, workload: Workload, seed: int, seconds: float,
            scratch: Path) -> list[RoundResult]:
    """Closed loop: rounds back to back while the next one is expected to end
    within `seconds` (at least MIN_ROUNDS)."""
    rounds: list[RoundResult] = []
    t_end = perf_counter() + seconds
    while (len(rounds) < MIN_ROUNDS
           or perf_counter() + statistics.median(r.wall_s for r in rounds) <= t_end):
        rounds.append(run_round(cli, workload.round(seed, len(rounds)), scratch))
    return rounds


def traced_pass(sie, workload: Workload, seed: int, scratch: Path):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rounds = [run_round(sie.cli, workload.round(seed, r), scratch)
                  for r in range(workload.trace_rounds)]
    finally:
        tracer.restore()
    t = tracer.tally
    tracer.check("steps inside simulate vs sum of segment n_accepted",
                 t["hybrid.steps"], t["hybrid.segment_steps"])
    tracer.check("dist_to_orbit calls vs certify samples",
                 tracer.spans["orbit.dist_to_orbit"].calls, t["orbit.prop1_samples"])
    return tracer, rounds


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_child:
        return setup_child(workload, args.seed, Path(args.scratch))

    facts = machine_facts()  # load average before this run adds to it
    scratch = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        sie = import_sie()
        print("# machine " + json.dumps(facts), flush=True)
        if args.trace:
            return run_traced(sie, workload, args, scratch)
        return run_plain(sie, workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()


def summarize(rounds: list[RoundResult]) -> tuple[int, int, list[str]]:
    problems = [p for r in rounds for p in r.problems]
    return sum(r.items for r in rounds), sum(r.failed for r in rounds), problems


def run_plain(sie, workload: Workload, args, scratch: Path) -> int:
    setup = measure_setup(workload, args.seed, scratch)
    run_round(sie.cli, workload.warmup(args.seed), scratch / "warmup")
    rounds = measure(sie.cli, workload, args.seed, args.seconds, scratch)
    attempted, failed, problems = summarize(rounds)
    wall = statistics.median(r.wall_s for r in rounds)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": rounds[0].items / wall,
        "cpu_s": statistics.median(r.cpu_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# {workload.name} seed={args.seed}: {len(rounds)} rounds of "
          f"{rounds[0].items} items, round walls "
          + " ".join(f"{r.wall_s:.3f}" for r in rounds)
          + " s; setup runs " + " ".join(f"{s:.3f}" for s in setup) + " s")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"# failed_frac = {failed / attempted:.6g} 1 ({failed} of {attempted} items)")
    for p in problems:
        print(f"# GATE FAILED: {p}")
    report(not problems, attempted, failed, metrics, END_TO_END_UNITS)
    return 0 if not problems else 1


def run_traced(sie, workload: Workload, args, scratch: Path) -> int:
    from tracer import COUNT_KEYS, LAYER_UNITS

    # a fixed number of rounds, so that counts depend on the seed alone
    run_round(sie.cli, workload.warmup(args.seed), scratch / "warmup")
    plain = [run_round(sie.cli, workload.round(args.seed, r), scratch)
             for r in range(workload.trace_rounds)]
    tracer, traced = traced_pass(sie, workload, args.seed, scratch)
    repeat, again_rounds = traced_pass(sie, workload, args.seed, scratch)
    attempted, failed, problems = summarize(plain + traced + again_rounds)
    problems += [f"tracer count {what}: traced {a} != program {b}"
                 for what, a, b in tracer.mismatches + repeat.mismatches]
    counts, again = tracer.counts(), repeat.counts()
    problems += [f"finding: count {k} differs between two traced passes: {counts[k]} != {again[k]}"
                 for k in COUNT_KEYS if counts[k] != again[k]]

    traced_s = sum(r.wall_s for r in traced)
    untraced_s = sum(r.wall_s for r in plain)
    metrics = tracer.layer_metrics()
    metrics["cli.bytes_written"] = sum(r.bytes_written for r in traced)
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    units = {k: LAYER_UNITS[k] for k in metrics}

    print(f"# {workload.name} seed={args.seed}: traced replay of {workload.trace_rounds} "
          f"round(s): {traced_s:.3f} s traced, {untraced_s:.3f} s untraced")
    print("# counts " + json.dumps(counts))
    print("# span calls total_s self_s")
    for name, st in sorted(tracer.spans.items()):
        print(f"#   {name} {st.calls} {st.total:.4f} {st.self_time:.4f}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for p in problems:
        print(f"# GATE FAILED: {p}")
    report(not problems, attempted, failed, metrics, units)
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
