#!/usr/bin/env python3
"""Interleaved A/B timing of two ehs-cnoma trees in one interpreter.

    python3 tools/inprocess_ab.py TREE_A TREE_B --workload grid-dense --rounds 40

Copies each tree's src/ehs_cnoma into a temporary directory as the packages
ehs_cnoma_a and ehs_cnoma_b and imports both, A first, into this process.
Each round runs ``cli.main(argv)`` once per tree, A first in even rounds and
B first in odd ones, and asserts that both print the same stdout and stderr.
argv is the workload's in TREE_B's perfbench/run.py WORKLOADS (imported, not
run), plus ``--workers`` and ``--extra``, one string that is split as a
shell would. argparse takes a dash-led value with no space in it for an
option, so give a lone option with ``=``: ``--extra=--validate``, while
``--extra "--trials 10"`` works as it is. Prints the median per-round
time(B) / time(A), above 1 where B is slower, and per run order its median
and the rounds B won. Swap the trees to swap the import order.

With ``--both-orders`` it runs itself twice, each in a fresh interpreter:
as given, then with the trees swapped. The tree imported second reads a
few percent faster, so it also prints the combined figure, the geometric
mean of the first median and the inverse of the swapped one. A run that
fails, for instance on trees that print different bytes, has its output
printed and its exit code returned.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def load(tree: Path, name: str, into: Path):
    """tree's ehs_cnoma package, imported as `name`, and its cli module."""
    shutil.copytree(tree / "src" / "ehs_cnoma", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def timed(cli, argv) -> tuple[float, str]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    assert code in (0, 1), f"exit code {code}"
    return elapsed, out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--workers", default="1")
    parser.add_argument(
        "--extra", default="",
        help="arguments appended to the workload's argv, split as a shell would; "
        "a lone dash-led option needs '=', as in --extra=--validate",
    )
    parser.add_argument("--both-orders", action="store_true", help="run both import orders")
    args = parser.parse_args(argv)
    if args.both_orders:
        return both_orders(args)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.tree_b.resolve() / "perfbench"))
    workloads = importlib.import_module("run").WORKLOADS
    run_argv = [*workloads[args.workload].argv, "--workers", args.workers,
                *shlex.split(args.extra)]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        clis = [load(args.tree_a, "ehs_cnoma_a", Path(tmp)),
                load(args.tree_b, "ehs_cnoma_b", Path(tmp))]
        timed(clis[0], run_argv), timed(clis[1], run_argv)  # warm both
        ratios = {"A first": [], "B first": []}
        for k in range(args.rounds):
            order = clis if k % 2 == 0 else clis[::-1]
            (t0, out0), (t1, out1) = [timed(cli, run_argv) for cli in order]
            assert out0 == out1, f"round {k}: the trees print different bytes"
            t_a, t_b = (t0, t1) if k % 2 == 0 else (t1, t0)
            ratios["A first" if k % 2 == 0 else "B first"].append(t_b / t_a)
    every = ratios["A first"] + ratios["B first"]
    for label, values in [(f"{args.workload} {shlex.join(run_argv)}", every), *ratios.items()]:
        print(f"{label}: B/A median {statistics.median(values):.4f},"
              f" B won {sum(r < 1.0 for r in values)} of {len(values)}")
    return 0


def both_orders(args) -> int:
    medians = []
    for trees in ([args.tree_a, args.tree_b], [args.tree_b, args.tree_a]):
        run = subprocess.run(
            [sys.executable, __file__, *map(str, trees), "--workload", args.workload,
             "--rounds", str(args.rounds), "--workers", args.workers, f"--extra={args.extra}"],
            capture_output=True, text=True,
        )
        print(run.stdout, end="")
        print(run.stderr, end="", file=sys.stderr)
        if run.returncode:
            return run.returncode
        medians.append(float(run.stdout.split("B/A median ")[1].split(",")[0]))
    combined = (medians[0] / medians[1]) ** 0.5
    print(f"combined B/A {combined:.4f} (A then B {medians[0]:.4f}, B then A {medians[1]:.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
