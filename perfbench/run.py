#!/usr/bin/env python3
"""Benchmark of the ehs-cnoma command line, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep-default --seed 42 --seconds 30 --trace 0

Runs one workload as a closed loop of operations, each a call of
``ehs_cnoma.cli.main(argv)`` in this process with the package imported from
``src/`` of the checkout, until ``--seconds`` have passed. Every operation's
CSV is checked (see ``check_output``). With ``--trace 0`` the last stdout
line is a JSON object holding the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics of a traced run (see spans.py),
and the spans of the last traced operation are written under ``.perfbench/``.
Exit code 0 when every check passed, 1 when one failed, 2 when the program
or BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 42  # the CLI's own default; the recorded CSV digests are for it
SETUP_REPEATS = 15


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    # --workers of successive operations, cycled; wall_s is taken at "1",
    # per-layer figures at the first
    workers: tuple[str, ...]
    # SHA-256 of the CSV at DEFAULT_SEED, recorded before any optimisation
    csv_sha256: str
    # SHA-256 of the columns that do not depend on the seed (check_output)
    grid_sha256: str


# Why each workload exists is written down in perfbench/README.md.
WORKLOADS = {
    "sweep-default": Workload(
        argv=(),
        workers=("1",),
        csv_sha256="fe29137e0d5680bc44818528b8a9cafba1a6aa24b640dad9d19a6e84da13c13d",
        grid_sha256="d6b1b44cd3d8d5d0c28d6893ef323d76a49c9875601880e06e8e21c7dd37f8ac",
    ),
    "point-1e7": Workload(
        argv=("--sweep", "snr", "--start", "15", "--stop", "15",
              "--protocol", "ehs-mrc", "--trials", "10000000"),
        workers=("nproc", "1"),
        csv_sha256="fb30773208054bdee5cf4532730cc1de87228fdc8764b0974a07de26b1f2bdbf",
        grid_sha256="38ef386dad567e7e9d33f1ca21d4ba4ad667fecd5684a537dd30526e49cd7b7b",
    ),
    "grid-dense": Workload(
        argv=("--sweep", "d1", "--start", "0.01", "--stop", "0.99", "--step", "0.002",
              "--trials", "1000"),
        workers=("1",),
        csv_sha256="77dcc695b4e33f3fb9cdd239035d6bc4ec6f9093e28398ed004f1ece85aa8260",
        grid_sha256="47e2a849752a827a8ce7eabc0fd68fa664a8137ca0e49a8e285a7e35ecce4030",
    ),
}

# per-layer counts that must repeat exactly from one traced operation to the next
EXACT_COUNTS = (
    "philox.calls",
    "philox.blocks",
    "philox.reuse",
    "gains.calls",
    "gains.trials",
    "kernel.calls",
    "kernel.trials",
    "mc.calls",
    "closed_form.calls",
    "specfun.calls",
    "sweep.points",
    "csv.rows",
    "csv.bytes",
)

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import ehs_cnoma; print(time.perf_counter() - t)"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_digest(text: str) -> str:
    """Digest of every CSV column but simulated, std_error and seed."""
    kept = []
    for line in text.splitlines():
        cells = line.split(",")
        kept.append(",".join(cells[:6] + cells[8:9]))
    return sha256("\n".join(kept))


def csv_counts(text: str) -> dict[str, int]:
    """Grid points, rows, bytes and simulated trials of one CSV output."""
    points = set()
    estimates = {}
    lines = text.splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        points.add(cells[1])
        estimates[(cells[1], cells[2])] = int(cells[8])
    return {
        "sweep.points": len(points),
        "csv.rows": len(lines),
        "csv.bytes": len(text.encode("utf-8")),
        "trials": sum(estimates.values()),
    }


def check_output(text: str, rc, first: str | None, wl: Workload, seed: int) -> list[str]:
    """Problems with one operation's CSV; an empty list means it is correct.

    The analytic column and the grid do not depend on the seed, so their
    digest is checked for every seed; the whole CSV is checked against its
    recorded digest at the default seed, and against the run's first
    operation (other worker counts included) at any seed.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if grid_digest(text) != wl.grid_sha256:
        problems.append("grid or analytic columns differ from the recorded digest")
    if seed == DEFAULT_SEED and sha256(text) != wl.csv_sha256:
        problems.append(f"CSV differs from the recorded digest for seed {DEFAULT_SEED}")
    if first is not None and text != first:
        problems.append("CSV differs from the first operation of this run")
    return problems


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, cli, wl: Workload, seed: int, nproc: int):
        self.cli = cli
        self.wl = wl
        self.seed = seed
        self.nproc = nproc
        self.first: str | None = None
        self.attempted = 0
        self.failed = 0

    def worker_count(self, workers: str) -> int:
        return self.nproc if workers == "nproc" else int(workers)

    def argv(self, workers: str) -> list[str]:
        count = self.worker_count(workers)
        return [*self.wl.argv, "--workers", str(count), "--seed", str(self.seed)]

    def op(self, workers: str, tracer=None) -> tuple[float, str, bool]:
        """One call of cli.main; returns (seconds, CSV text, correct)."""
        out, err = io.StringIO(), io.StringIO()
        argv = self.argv(workers)
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with tracer.installed(), tracer.span("cli:main", "cli"):
                        rc = self.cli.main(argv)
            except Exception:
                traceback.print_exc()
            seconds = time.perf_counter() - t0
        text = out.getvalue()
        problems = check_output(text, rc, self.first, self.wl, self.seed)
        if self.first is None:
            self.first = text
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
            sys.stderr.write(err.getvalue())
        return seconds, text, not problems


def setup_seconds() -> float:
    """Median time to import ehs_cnoma in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(proc.stdout))
    # the first interpreter may still be writing bytecode caches
    return statistics.median(samples[1:])


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_caches() -> dict[str, int]:
    """Data or unified cache sizes of cpu0 in bytes, keyed l1/l2/l3."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 * 1024}.get(size[-1:], 1)
        sizes[f"l{level}"] = int(size.rstrip("KM")) * scale
    return sizes


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_metadata(ehs_cnoma, workload: str, seed: int, nproc: int) -> dict:
    import numpy

    from ehs_cnoma import montecarlo

    caches = cpu_caches()
    chunk_bytes = getattr(montecarlo, "CHUNK_TRIALS", 0) * 8
    l2 = caches.get("l2")
    fits = l2 is not None and chunk_bytes <= l2
    backend = getattr(ehs_cnoma, "active_backend", None)
    return {
        "workload": workload,
        "commit": git_commit(),
        "seed": seed,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "l2_bytes": l2,
        "l3_bytes": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend() if backend else None,
        "chunk_array_bytes": chunk_bytes,
        "bandwidth": (
            "chunk arrays fit in L2, so no metric here is a bandwidth measurement"
            if fits else "chunk arrays do not fit in L2"
        ),
    }


def metric_entries(specs: list[dict], values: dict) -> dict:
    return {
        spec["name"]: {"value": values.get(spec["name"]), "unit": spec["unit"]}
        for spec in specs
    }


def describe(samples: list[float]) -> str:
    return (f"median of {len(samples)} ops, min {min(samples):.4f}, "
            f"max {max(samples):.4f}")


def untraced(runner: Runner, seconds: float) -> dict:
    times = {w: [] for w in runner.wl.workers}
    trials = None
    deadline = time.perf_counter() + seconds
    while True:
        for workers in runner.wl.workers:
            dt, text, ok = runner.op(workers)
            times[workers].append(dt)
            if ok and trials is None:
                trials = csv_counts(text)["trials"]
        if time.perf_counter() >= deadline:
            break
    wall = statistics.median(times["1"])
    values = {
        "wall_s": wall,
        "trials_per_s": trials / wall if trials else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"wall_s {wall:.4f} s ({describe(times['1'])}, workers=1)")
    print(f"trials_per_s {values['trials_per_s']} 1/s ({trials} trials per op)")
    print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    for workers, samples in times.items():
        if workers != "1":
            # printed, not a metric: its run-to-run spread is too wide to gate
            other = statistics.median(samples)
            print(f"wall at workers={runner.worker_count(workers)} {other:.4f} s "
                  f"({describe(samples)}), speedup {wall / other:.3f}")
    return values


def traced(runner: Runner, seconds: float, meta: dict, workload: str) -> dict:
    tracer = spans.Tracer()
    for name in tracer.missing:
        print(f"hook absent: {name}")
    for layer in tracer.absent:
        print(f"layer absent: {layer}")
    main_workers = runner.wl.workers[0]
    plain_t, traced_t, per_op = [], [], []
    reference_counts = None
    last_spans = []
    deadline = time.perf_counter() + seconds
    while True:
        for workers in runner.wl.workers:
            dt, _, _ = runner.op(workers)
            if workers == main_workers:
                plain_t.append(dt)
            dt, text, ok = runner.op(workers, tracer)
            if not ok:
                continue
            values = spans.layer_metrics(tracer.spans, tracer.absent)
            values.update(csv_counts(text))
            counts = {k: values[k] for k in EXACT_COUNTS if k in values}
            if reference_counts is None:
                reference_counts = counts
            elif counts != reference_counts:
                runner.failed += 1
                print(f"FAILED exact counts changed: {counts} != {reference_counts}",
                      file=sys.stderr)
            if workers == main_workers:
                traced_t.append(dt)
                per_op.append(values)
                last_spans = tracer.spans
        if time.perf_counter() >= deadline:
            break

    values = {}
    if reference_counts is not None:
        print("exact counts " + json.dumps(reference_counts))
    if per_op:
        for key, value in per_op[0].items():
            # counts were checked equal across operations; times take the median
            exact = key in EXACT_COUNTS
            values[key] = value if exact else statistics.median(v[key] for v in per_op)
        values["trace_overhead"] = statistics.median(traced_t) - statistics.median(plain_t)
        write_spans(last_spans, meta, workload, runner.seed)
    print(f"traced {len(per_op)} ops; trace_overhead {values.get('trace_overhead')} s "
          f"(traced minus untraced median wall, {len(plain_t)} untraced ops)")
    return values


def write_spans(recorded, meta: dict, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    origin = min(s.start for s in recorded)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": meta}) + "\n")
        for span in recorded:
            handle.write(json.dumps(span.as_dict(origin)) + "\n")
    print(f"spans of the last traced op: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ehs_cnoma" / "__init__.py").is_file():
        print(f"error: no ehs_cnoma package under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ehs_cnoma
    from ehs_cnoma import cli

    if not Path(ehs_cnoma.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ehs_cnoma from {ehs_cnoma.__file__}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    meta = run_metadata(ehs_cnoma, args.workload, args.seed, nproc)
    print("meta " + json.dumps(meta))
    runner = Runner(cli, WORKLOADS[args.workload], args.seed, nproc)
    if args.trace:
        values = traced(runner, args.seconds, meta, args.workload)
        metrics = metric_entries(spec["per_layer"], values)
    else:
        values = {"setup_s": setup_seconds()}
        print(f"setup_s {values['setup_s']:.4f} s (median import time of "
              f"{SETUP_REPEATS} fresh interpreters)")
        values.update(untraced(runner, args.seconds))
        metrics = metric_entries(spec["end_to_end"], values)
    print(f"failed_frac {runner.failed / runner.attempted} ({runner.failed} of "
          f"{runner.attempted} ops failed)")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
