"""Sweep orchestration, config parsing, and bit-exact CSV emission."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analytic, model, montecarlo
from .model import SystemParams
from .montecarlo import EstimatorConfig
from .protocols import Protocol, thresholds

CSV_HEADER = "variable,value,protocol,metric,symbol,analytic,simulated,std_error,trials,seed"

# SystemParams owns its defaults; rho is set from snr_db
_DEFAULTS = {
    "snr_db": 15.0,
    **{field.name: field.default for field in fields(SystemParams) if field.name != "rho"},
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
# metric id -> (metric, symbol) of its CSV rows, in row order
_ROW_LAYOUT = {
    "c_x1": ("esc", "x1"),
    "c_x2": ("esc", "x2"),
    "c_x3": ("esc", "x3"),
    "esc_total": ("esc", "sum"),
    "op_x1": ("op", "x1"),
    "op_x2_ccu": ("op", "x2"),
    "op_x3_ceu": ("op", "x3"),
    "ee": ("ee", "-"),
}


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
            # the count values() would give; a ratio that overflows gives none
            count = math.floor(steps) + 1 if math.isfinite(steps) else steps
            raise ValueError(
                f"sweep grid of {count} points exceeds {_MAX_GRID_POINTS}: "
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
    snr_db = values.pop("snr_db")
    cfg_values = {key: values.pop(key) for key in _INT_KEYS}
    try:
        params = SystemParams(rho=db_to_linear(snr_db), **values)
        cfg = EstimatorConfig(**cfg_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return params, cfg


def db_to_linear(snr_db: float) -> float:
    # -inf dB is rho = 0; inf and nan have no linear SNR
    if math.isnan(snr_db) or snr_db == math.inf:
        raise ValueError(f"snr_db must be finite or -inf, got {snr_db}")
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db={snr_db} overflows 10^(snr_db/10)") from None


def _swept(spec: SweepSpec, values) -> tuple[str, list]:
    """The SystemParams field the grid sweeps, and its value at each grid value."""
    if spec.variable == "snr_db":
        return "rho", [db_to_linear(value) for value in values]
    return spec.variable, list(values)


def _grid_params(spec: SweepSpec, params: SystemParams, values) -> list[SystemParams]:
    """params at each grid value, each built by the constructor, which runs every check."""
    key, swept = _swept(spec, values)
    return [SystemParams(**{**asdict(params), key: value}) for value in swept]


def _row_layout(spec: SweepSpec, protocol: Protocol) -> list[tuple[str, str, str, int]]:
    """(metric id, metric, symbol, estimate column) of each row a grid point gives the protocol."""
    return [
        (metric_id, metric, symbol, montecarlo.METRICS.index(metric_id))
        for metric_id, (metric, symbol) in _ROW_LAYOUT.items()
        # x1 is never transmitted by the baseline, so its rows are dropped
        if metric in spec.metrics and not (protocol is Protocol.HS_SC and symbol == "x1")
    ]


class SweepRows:
    """A sweep's rows held as arrays, which write_csv formats.

    Each grid value gives a row per layout entry, (protocol, metric, symbol, has a closed
    form); table (values, layout, 3) holds the analytic (NaN if none), simulated, std_error.
    """

    def __init__(self, variable, values, layout, table, trials, seed):
        self.variable, self.values, self.layout = variable, values, layout
        self.table, self.trials, self.seed = table, trials, seed

    def _csv_lines(self) -> str:
        # one % per point over its rows' template: the value once as %s, each float as %.9g
        def text(value) -> str:
            return str(value).replace("%", "%%")

        head, tail = text(self.variable) + ",%s,", f",{text(self.trials)},{text(self.seed)}\n"
        template = "".join(
            f"{head}{text(protocol)},{text(metric)},{text(symbol)},"
            f"{'%.9g' if has_form else ''},%.9g,%.9g{tail}"
            for protocol, metric, symbol, has_form in self.layout
        )
        points = len(self.values)
        cells = np.empty((points, len(self.layout), 4), dtype=object)
        cells[:, :, 0] = np.array(["%.9g" % value for value in self.values], dtype=object)[:, None]
        cells[:, :, 1:] = self.table
        # a row with no closed form leaves its analytic cell out
        used = [has_form or cell != 1 for *_, has_form in self.layout for cell in range(4)]
        arguments = cells.reshape(points, -1)[:, used].tolist()
        return "".join([template % tuple(point) for point in arguments])


def run_sweep(
    spec: SweepSpec, params: SystemParams, cfg: EstimatorConfig, workers: int = 1,
    validate: bool = False,
) -> tuple[SweepRows, list[montecarlo.ValidationReport]]:
    """(rows, reports): one row per (grid point, protocol, metric, symbol), in that order.

    Variances and thresholds are re-derived at every point, so sweeping d1
    or alpha changes them consistently. For SNR sweeps the grid is in dB.
    rows holds the estimates' arrays and the closed forms' values. With
    validate, reports holds compare_with_analytic's report for each
    protocol at params, the base point, estimated after the grid in the
    same call, so on the same draws. Grid errors come first, in row order.
    """
    grid = spec.values()
    # Each check of SystemParams, variances_from_distances and thresholds is
    # an interval or an overflow that grows one way along the monotone grid,
    # so the two ends pass exactly when every point does; fail before the
    # first estimate, then build the points between without checks
    for p_end in _grid_params(spec, params, (grid[0], grid[-1])):
        model.variances_from_distances(p_end)
        thresholds(p_end)
    key, swept = _swept(spec, grid)
    base = []
    if validate:
        # the base point's own checks run now, but its error is raised after the grid's
        try:
            base_varz = model.variances_from_distances(params)
            thresholds(params)
            base = [getattr(params, key)]
        except ValueError as exc:
            base_error = exc
    # one call, the base point last: each chunk drawn once, a point's protocols in one pass
    grid_params, grid_varz = model.grid_points(params, key, swept + base)
    call = montecarlo.estimate_metrics(grid_params, grid_varz, spec.protocols, cfg, workers=workers)
    points = len(swept) + len(base)
    # every estimate is checked at once, and the closed forms run once, on
    # the grid's namespaces, where an overflow leaves a value a form raises
    # on; either failure leads to the walk below. Each row takes its form
    # (NaN where none) and the estimate column of its protocol's entry
    per_row = []
    try:
        if not call.ok.all():
            raise ValueError("undefined estimate")
        with np.errstate(all="ignore"):
            tables = analytic.closed_forms(grid_params, grid_varz, spec.protocols)
            for entry, (protocol, forms) in enumerate(zip(spec.protocols, tables)):
                per_row += [
                    ((protocol.value, metric, symbol, metric_id in forms),
                     forms[metric_id].value if metric_id in forms else math.nan, entry, column)
                    for metric_id, metric, symbol, column in _row_layout(spec, protocol)
                ]
    except ValueError:
        # walking the entries in row order, the base point's last, raises the
        # first error, an estimate's or a closed form's, as point by point
        for k in range(points):
            point = model.span(grid_params, k, k + 1), model.span(grid_varz, k, k + 1)
            for protocol in spec.protocols:
                next(call)
                analytic.closed_forms(*point, (protocol,))
        raise
    layout, analytics, entries, columns = zip(*per_row)
    table = np.empty((points, len(layout), 3))
    for row, value in enumerate(analytics):
        table[:, row, 0] = value
    estimates = np.stack([call.mean, call.std_error], axis=-1)
    table[:, :, 1:] = estimates.reshape(points, len(spec.protocols), -1, 2)[:, entries, columns]
    rows = SweepRows(spec.variable, grid, layout, table[: len(grid)], cfg.trials, cfg.seed)
    if validate and not base:
        raise base_error
    on_grid = len(grid) * len(spec.protocols)
    return rows, [
        montecarlo.compare_with_analytic(params, base_varz, protocol, call.point(on_grid + k))
        for k, protocol in enumerate(spec.protocols) if base
    ]


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_csv(rows: SweepRows, destination) -> None:
    """Write run_sweep's rows as UTF-8 CSV with LF endings and 9 significant digits.

    destination may be a path or a text stream; identical rows always
    produce identical bytes.
    """
    if not rows.table.size:
        raise ValueError("no rows to write")
    text = CSV_HEADER + "\n" + rows._csv_lines()
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse stores `--opt=--` as an empty list, unconverted and unchecked
        for name, value in vars(args).items():
            if isinstance(value, list):
                parser.error(f"argument --{name}: expected one argument")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
    except (OSError, UnicodeDecodeError) as exc:
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
        rows, reports = run_sweep(spec, params, cfg, workers=args.workers, validate=args.validate)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        write_csv(rows, args.out if args.out is not None else sys.stdout)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2

    return 1 if _print_validation(reports) else 0


if __name__ == "__main__":
    raise SystemExit(main())
