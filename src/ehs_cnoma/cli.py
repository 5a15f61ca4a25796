"""Sweep orchestration, config parsing, and bit-exact CSV emission."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import analytic, model, montecarlo
from .analytic import AnalyticReport
from .model import SystemParams
from .montecarlo import Estimate, EstimatorConfig
from .protocols import Protocol

CSV_HEADER = "variable,value,protocol,metric,symbol,analytic,simulated,std_error,trials,seed"

_DEFAULTS = {
    "snr_db": 15.0,
    "alpha": 0.3,
    "delta": 0.3,
    "eta": 0.7,
    "v": 2.0,
    "d1": 0.5,
    "d2": 1.0,
    "p_n": 0.1,
    "p_f": 0.9,
    "p_total": 1.0,
    "r1": 1.0,
    "r2": 1.0,
    "r3": 1.0,
    "trials": 100000,
    "seed": 42,
}
_INT_KEYS = {"trials", "seed"}

_SWEEP_DEFAULTS = {
    "snr_db": (0.0, 30.0, 5.0),
    "alpha": (0.1, 0.8, 0.1),
    "d1": (0.1, 0.9, 0.1),
}
_MAX_GRID_POINTS = 10 ** 6

ALL_METRICS = ("esc", "op", "ee")
_ESC_SYMBOLS = (("x1", "c_x1"), ("x2", "c_x2"), ("x3", "c_x3"), ("sum", "esc_total"))
_OP_SYMBOLS = (("x1", "op_x1"), ("x2", "op_x2_ccu"), ("x3", "op_x3_ceu"))


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    step: float
    protocols: tuple[Protocol, ...] = (Protocol.EHS_MRC, Protocol.HS_SC)
    metrics: tuple[str, ...] = ALL_METRICS

    def __post_init__(self):
        if self.variable not in _SWEEP_DEFAULTS:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step <= 0.0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.stop < self.start:
            raise ValueError(f"empty sweep grid: start={self.start} > stop={self.stop}")
        # checked before values() builds the list, so no input allocates without bound
        steps = self._steps()
        if not steps < _MAX_GRID_POINTS:
            raise ValueError(
                f"sweep grid of {steps + 1:.6g} points exceeds {_MAX_GRID_POINTS}: "
                f"start={self.start} stop={self.stop} step={self.step}"
            )
        if not self.protocols:
            raise ValueError("at least one protocol required")
        bad = [m for m in self.metrics if m not in ALL_METRICS]
        if bad or not self.metrics:
            raise ValueError(f"metrics must be a subset of {ALL_METRICS}, got {self.metrics}")

    def _steps(self) -> float:
        return (self.stop - self.start) / self.step + 1e-9

    def values(self) -> list[float]:
        count = int(math.floor(self._steps())) + 1
        return [self.start + k * self.step for k in range(count)]


@dataclass(frozen=True)
class SweepRow:
    variable: str
    value: float
    protocol: str
    metric: str
    symbol: str
    analytic: float | None
    simulated: float
    std_error: float
    trials: int
    seed: int


def parse_config(text: str) -> tuple[SystemParams, EstimatorConfig]:
    """Parse line-oriented `key = value` text; missing keys take defaults.

    `#` starts a comment; unknown keys and malformed lines are errors that
    carry the line number. Repeated keys keep the last value.
    """
    values = dict(_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in values:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: missing value for {key!r}")
        try:
            values[key] = int(value) if key in _INT_KEYS else float(value)
        except ValueError:
            kind = "an integer" if key in _INT_KEYS else "a number"
            raise ConfigError(f"line {lineno}: {key!r} needs {kind}, got {value!r}") from None
    try:
        params = SystemParams(
            rho=db_to_linear(values["snr_db"]),
            alpha=values["alpha"],
            delta=values["delta"],
            eta=values["eta"],
            p_n=values["p_n"],
            p_f=values["p_f"],
            p_total=values["p_total"],
            d1=values["d1"],
            d2=values["d2"],
            v=values["v"],
            r1=values["r1"],
            r2=values["r2"],
            r3=values["r3"],
        )
        cfg = EstimatorConfig(trials=values["trials"], seed=values["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return params, cfg


def render_config(params: SystemParams, cfg: EstimatorConfig) -> str:
    """Emit config text that parse_config maps back to the same objects."""
    values = {
        "snr_db": linear_to_db(params.rho),
        "alpha": params.alpha,
        "delta": params.delta,
        "eta": params.eta,
        "v": params.v,
        "d1": params.d1,
        "d2": params.d2,
        "p_n": params.p_n,
        "p_f": params.p_f,
        "p_total": params.p_total,
        "r1": params.r1,
        "r2": params.r2,
        "r3": params.r3,
        "trials": cfg.trials,
        "seed": cfg.seed,
    }
    return "".join(f"{key} = {value!r}\n" for key, value in values.items())


def db_to_linear(snr_db: float) -> float:
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db={snr_db} overflows 10^(snr_db/10)") from None


def linear_to_db(rho: float) -> float:
    if rho <= 0.0:
        raise ValueError(f"rho must be > 0 to express in dB, got {rho}")
    return 10.0 * math.log10(rho)


def _point_params(spec: SweepSpec, params: SystemParams, value: float) -> SystemParams:
    if spec.variable == "snr_db":
        return replace(params, rho=db_to_linear(value))
    if spec.variable == "alpha":
        return replace(params, alpha=value)
    return replace(params, d1=value)


def _point_rows(
    spec: SweepSpec,
    value: float,
    cfg: EstimatorConfig,
    protocol: Protocol,
    estimates: dict[str, Estimate],
    forms: dict[str, AnalyticReport],
) -> list[SweepRow]:
    layout: list[tuple[str, str, str]] = []
    if "esc" in spec.metrics:
        layout += [("esc", sym, mid) for sym, mid in _ESC_SYMBOLS]
    if "op" in spec.metrics:
        layout += [("op", sym, mid) for sym, mid in _OP_SYMBOLS]
    if "ee" in spec.metrics:
        layout.append(("ee", "-", "ee"))
    if protocol is Protocol.HS_SC:
        # x1 is never transmitted by the baseline, so its rows are dropped
        layout = [entry for entry in layout if entry[1] != "x1"]
    rows = []
    for metric, symbol, metric_id in layout:
        est = estimates[metric_id]
        rows.append(
            SweepRow(
                variable=spec.variable,
                value=value,
                protocol=protocol.value,
                metric=metric,
                symbol=symbol,
                analytic=forms[metric_id].value if metric_id in forms else None,
                simulated=est.mean,
                std_error=est.std_error,
                trials=cfg.trials,
                seed=cfg.seed,
            )
        )
    return rows


def run_sweep(
    spec: SweepSpec, params: SystemParams, cfg: EstimatorConfig, workers: int = 1
) -> list[SweepRow]:
    """One row per (grid point, protocol, metric, symbol), in that order.

    Variances and thresholds are re-derived at every point, so sweeping d1
    or alpha changes them consistently. For SNR sweeps the grid is in dB.
    """
    grid = spec.values()
    if spec.variable == "alpha" and not (0.0 < grid[0] and grid[-1] < 1.0):
        raise ValueError(f"alpha sweep must stay inside (0, 1), got [{grid[0]}, {grid[-1]}]")
    if spec.variable == "d1" and not (0.0 < grid[0] and grid[-1] < params.d2):
        raise ValueError(
            f"d1 sweep must stay inside (0, d2={params.d2}), got [{grid[0]}, {grid[-1]}]"
        )
    rows: list[SweepRow] = []
    for value in grid:
        p_point = _point_params(spec, params, value)
        varz = model.variances_from_distances(p_point)
        for protocol in spec.protocols:
            estimates = montecarlo.estimate_metrics(p_point, varz, cfg, protocol, workers=workers)
            forms = analytic.closed_forms(p_point, varz, protocol)
            rows.extend(_point_rows(spec, value, cfg, protocol, estimates, forms))
    return rows


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_csv(rows: list[SweepRow], destination) -> None:
    """Write rows as UTF-8 CSV with LF endings and 9 significant digits.

    destination may be a path or a text stream; identical rows always
    produce identical bytes.
    """
    if not rows:
        raise ValueError("no rows to write")
    lines = [CSV_HEADER]
    for row in rows:
        analytic_cell = "" if row.analytic is None else _fmt(row.analytic)
        lines.append(
            ",".join(
                (
                    row.variable,
                    _fmt(row.value),
                    row.protocol,
                    row.metric,
                    row.symbol,
                    analytic_cell,
                    _fmt(row.simulated),
                    _fmt(row.std_error),
                    str(row.trials),
                    str(row.seed),
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehs-cnoma",
        description=(
            "Sweep a cooperative NOMA downlink simulator over SNR, the "
            "time-switching fraction, or the near-user distance, and emit "
            "simulated plus closed-form metrics as CSV."
        ),
    )
    parser.add_argument("--config", type=Path, help="key = value parameter file")
    parser.add_argument("--sweep", choices=("snr", "alpha", "d1"), default="snr")
    parser.add_argument("--start", type=float, help="sweep grid start (default per variable)")
    parser.add_argument("--stop", type=float, help="sweep grid stop, inclusive")
    parser.add_argument("--step", type=float, help="sweep grid step")
    parser.add_argument(
        "--protocol", choices=("ehs-mrc", "hs-sc", "both"), default="both"
    )
    parser.add_argument("--metrics", choices=("esc", "op", "ee", "all"), default="all")
    parser.add_argument("--trials", type=int, help="Monte-Carlo trials per point")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--out", type=Path, help="CSV destination (default stdout)")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="cross-check simulation against the closed forms at the base "
        "parameter point and exit 1 on disagreement",
    )
    parser.add_argument("--workers", type=int, default=1, help="chunk worker threads")
    return parser


def _print_validation(reports) -> bool:
    any_failed = False
    for report in reports:
        for row in report.rows:
            z_part = "" if row.z is None else f" z={row.z:+.2f}"
            print(
                f"VALIDATE {report.protocol.value} {row.metric}: "
                f"analytic={_fmt(row.analytic)} simulated={_fmt(row.simulated)} "
                f"std_error={_fmt(row.std_error)}{z_part} {row.status}",
                file=sys.stderr,
            )
        any_failed = any_failed or report.failed
    return any_failed


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        params, cfg = parse_config(text)
        if args.trials is not None or args.seed is not None:
            cfg = replace(
                cfg,
                trials=cfg.trials if args.trials is None else args.trials,
                seed=cfg.seed if args.seed is None else args.seed,
            )
        variable = {"snr": "snr_db", "alpha": "alpha", "d1": "d1"}[args.sweep]
        start, stop, step = _SWEEP_DEFAULTS[variable]
        protocols = (
            (Protocol.EHS_MRC, Protocol.HS_SC)
            if args.protocol == "both"
            else (Protocol(args.protocol),)
        )
        metrics = ALL_METRICS if args.metrics == "all" else (args.metrics,)
        spec = SweepSpec(
            variable=variable,
            start=start if args.start is None else args.start,
            stop=stop if args.stop is None else args.stop,
            step=step if args.step is None else args.step,
            protocols=protocols,
            metrics=metrics,
        )
        rows = run_sweep(spec, params, cfg, workers=args.workers)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        write_csv(rows, args.out if args.out is not None else sys.stdout)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2

    if args.validate:
        varz = model.variances_from_distances(params)
        reports = [
            montecarlo.compare_with_analytic(params, varz, cfg, p, workers=args.workers)
            for p in protocols
        ]
        if _print_validation(reports):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
