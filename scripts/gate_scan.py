"""Replay a benchmark workload's rounds through its gates, without timing.

    python3 scripts/gate_scan.py --tree <dir> --workload <name> --seeds A-B --rounds A-B

<dir> is a source checkout with `bench/run.py` and `src/`, for example the
working tree or a `git archive` export of another commit.  For every seed
and round the script calls that tree's `run_round` on the round's
invocations, as a timed run of `bench/run.py --seed <seed>` would in its
round-th round, and collects the gates' problems.  It prints one line per
failing (seed, round, gate message) and a summary line, and exits 1 when any
round failed.  A gate that fails only at a late round, which a 30 s run of
some seed reaches, shows here without the run.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
from pathlib import Path


def span(text: str) -> range:
    """'A-B' (inclusive) or 'A' as a range."""
    lo, _, hi = text.partition("-")
    lo_i, hi_i = int(lo), int(hi or lo)
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


def load_runner(tree: Path):
    """The tree's bench/run.py as a module; it imports its own workloads."""
    path = tree / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("gate_scan_bench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=span, required=True)
    parser.add_argument("--rounds", type=span, required=True)
    args = parser.parse_args(argv)

    runner = load_runner(args.tree.resolve())
    if args.workload not in runner.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(runner.WORKLOADS)}")
    workload = runner.WORKLOADS[args.workload]
    sie = runner.import_sie()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="gate_scan_") as scratch:
        for seed in args.seeds:
            for r in args.rounds:
                result = runner.run_round(sie.cli, workload.round(seed, r), Path(scratch))
                for problem in result.problems:
                    print(f"FAIL seed={seed} round={r}: {problem}", flush=True)
                failures += bool(result.problems)
    total = len(args.seeds) * len(args.rounds)
    print(f"{args.workload} on {args.tree}: {failures} of {total} rounds failed "
          f"(seeds {args.seeds.start}-{args.seeds.stop - 1}, "
          f"rounds {args.rounds.start}-{args.rounds.stop - 1})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
