"""In-memory span tracer and per-layer metrics for the traced benchmark run.

Each hook wraps one public function of ehs_cnoma at the module attribute
its caller looks it up on: ``analytic`` imports ``neg_ei_exp`` by name, so
that hook sits on ``ehs_cnoma.analytic``; ``montecarlo`` calls
``_kernels.accumulate_chunk`` through the package, so that hook sits on
``ehs_cnoma._kernels``. A hook whose module or function no longer exists is
skipped, and a layer left with no hook is reported absent, so the traced run
survives refactors that delete or move code. Wrappers are installed only
inside ``Tracer.installed()``; untraced operations run the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

CLOSED_FORMS = (
    "ergodic_c_x1",
    "ergodic_c_x2",
    "ergodic_c_x3",
    "ergodic_sum",
    "op_ccu",
    "op_ceu_x1",
    "op_ceu_x3",
    "energy_efficiency",
)

# (layer, module, attribute, work): work(arguments, result) is the unit count
# the layer did in one call, or None where the layer is only timed
HOOKS = (
    ("philox", "ehs_cnoma._philox", "uniform_lanes",
     lambda a, r: (a["seed"], a["start"], a["stop"])),
    ("gains", "ehs_cnoma.model", "sample_gains", lambda a, r: len(r[0])),
    ("kernel", "ehs_cnoma._kernels", "accumulate_chunk", lambda a, r: r[0]),
    ("mc", "ehs_cnoma.montecarlo", "estimate_metrics", lambda a, r: a["workers"]),
    *(("closed_form", "ehs_cnoma.analytic", name, None) for name in CLOSED_FORMS),
    ("specfun", "ehs_cnoma.analytic", "neg_ei_exp", None),
    ("sweep", "ehs_cnoma.cli", "run_sweep", None),
    ("csv", "ehs_cnoma.cli", "write_csv", None),
)

# "cli" is the benchmark's own root span around each cli.main call
LAYERS = ("philox", "gains", "kernel", "mc", "closed_form", "specfun", "sweep", "csv", "cli")

PHILOX_BLOCK_BYTES = 32  # one Philox4x64 output block
KERNEL_BYTES_PER_TRIAL = 24  # three float64 gain arrays read per trial


class Span:
    __slots__ = ("id", "name", "layer", "parent", "thread", "start", "end", "work")

    def __init__(self, id_, name, layer, parent, thread):
        self.id = id_
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.start = time.perf_counter()
        self.end = None
        self.work = None

    def as_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "thread": self.thread,
            "start": self.start - origin,
            "end": self.end - origin,
        }


class Tracer:
    """Records spans (name, start, end, parent, thread id) of one operation.

    Create it in the thread that runs the operations. A span opened in a
    worker thread with no open span of its own takes the innermost open span
    of that creating thread as parent; that is the call that started the
    worker, because operations run one after another.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self.hooks, self.missing = self._resolve()
        present = {layer for layer, *_ in self.hooks}
        self.absent = [layer for layer in LAYERS if layer != "cli" and layer not in present]

    @staticmethod
    def _resolve():
        hooks, missing = [], []
        for layer, module_name, attr, work in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            hooks.append((layer, module, attr, fn, work))
        return hooks, missing

    def _open(self, name: str, layer: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), name, layer, parent, threading.get_ident())
        stack.append(span.id)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, layer, name, fn, work):
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = work(bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every resolved hook for the duration of the block."""
        self.spans = []
        for layer, module, attr, fn, work in self.hooks:
            setattr(module, attr, self._wrap(layer, f"{layer}:{attr}", fn, work))
        try:
            yield self
        finally:
            for _, module, attr, fn, _ in self.hooks:
                setattr(module, attr, fn)


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _distinct_blocks(ranges) -> int:
    """Number of distinct (seed, block) pairs in a list of (seed, start, stop)."""
    by_seed = defaultdict(list)
    for seed, start, stop in ranges:
        by_seed[seed].append((start, stop))
    total = 0
    for spans in by_seed.values():
        hi = None
        for start, stop in sorted(spans):
            if hi is not None and start < hi:
                start = hi
            if stop > start:
                total += stop - start
                hi = stop if hi is None else max(hi, stop)
    return total


def layer_metrics(spans: list[Span], absent: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced operation whose root span is layer "cli".

    A layer's calls and busy time count the spans entered from another
    layer; its self time is each of its spans' duration minus the part of
    that interval the span's children cover. Metrics of absent layers, and
    of layers the operation never entered, are left out.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    root = next(s for s in spans if s.layer == "cli" and s.parent is None)
    wall = root.end - root.start

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    outer = defaultdict(list)
    for s in spans:
        kids = [(k.start, k.end) for k in children[s.id]]
        self_s[s.layer] += (s.end - s.start) - _covered(s.start, s.end, kids)
        if s.parent is None or by_id[s.parent].layer != s.layer:
            calls[s.layer] += 1
            busy[s.layer] += s.end - s.start
            outer[s.layer].append(s)
    absent = set(absent) | {layer for layer in LAYERS if not calls[layer]}

    out: dict[str, float] = {}
    if "philox" not in absent:
        ranges = [s.work for s in outer["philox"]]
        blocks = sum(stop - start for _, start, stop in ranges)
        out["philox.calls"] = calls["philox"]
        out["philox.blocks"] = blocks
        out["philox.busy_s"] = busy["philox"]
        out["philox.blocks_per_s"] = blocks / busy["philox"]
        out["philox.bytes_computed"] = blocks * PHILOX_BLOCK_BYTES
        out["philox.reuse"] = _distinct_blocks(ranges) / blocks
    if "gains" not in absent:
        out["gains.calls"] = calls["gains"]
        out["gains.trials"] = sum(s.work for s in outer["gains"])
        out["gains.self_s"] = self_s["gains"]
    if "kernel" not in absent:
        trials = sum(s.work for s in outer["kernel"])
        out["kernel.calls"] = calls["kernel"]
        out["kernel.trials"] = trials
        out["kernel.busy_s"] = busy["kernel"]
        out["kernel.trials_per_s"] = trials / busy["kernel"]
        out["kernel.bytes_in"] = trials * KERNEL_BYTES_PER_TRIAL
    if "mc" not in absent:
        child_s = sum(k.end - k.start for s in outer["mc"] for k in children[s.id])
        capacity_s = sum(s.work * (s.end - s.start) for s in outer["mc"])
        out["mc.calls"] = calls["mc"]
        out["mc.self_s"] = self_s["mc"]
        out["mc.busy_frac"] = child_s / capacity_s
    if "closed_form" not in absent:
        out["closed_form.calls"] = calls["closed_form"]
        out["closed_form.busy_s"] = busy["closed_form"]
    if "specfun" not in absent:
        out["specfun.calls"] = calls["specfun"]
    if "sweep" not in absent:
        out["sweep.self_s"] = self_s["sweep"]
    if "csv" not in absent:
        out["csv.busy_s"] = busy["csv"]
    for layer in LAYERS:
        if layer not in absent:
            out[f"{layer}.share"] = self_s[layer] / wall
    return out
