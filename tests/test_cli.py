import ast
import dataclasses
import hashlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import platform
import shutil
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehs_cnoma import _philox, analytic, cli, model, montecarlo
from ehs_cnoma._philox import uniform_lanes
from ehs_cnoma.cli import (
    ConfigError,
    SweepSpec,
    db_to_linear,
    main,
    parse_config,
    run_sweep,
    write_csv,
)
from ehs_cnoma.montecarlo import EstimatorConfig
from ehs_cnoma.protocols import Protocol, thresholds
from oracles import stacked

SMALL = ["--trials", "2000", "--stop", "5.0"]


class TestDbConversion:
    def test_values(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == 10.0
        with pytest.raises(ValueError, match="snr_db=4000"):
            db_to_linear(4000.0)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        params, cfg = parse_config("")
        assert params == model.SystemParams(rho=10.0 ** 1.5)
        assert cfg == EstimatorConfig(trials=100_000, seed=42)

    def test_overrides_comments_and_last_wins(self):
        text = "\n".join(
            [
                "# full line comment",
                "snr_db = 20  # trailing comment",
                "alpha = 0.25",
                "",
                "trials = 500",
                "trials = 700",
            ]
        )
        params, cfg = parse_config(text)
        assert params.rho == db_to_linear(20.0)
        assert params.alpha == 0.25
        assert cfg.trials == 700

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("bogus = 1", "line 1: unknown key"),
            ("alpha 0.3", "line 1: expected"),
            ("\n\nalpha =", "line 3: missing value"),
            ("eta = fast", "line 1: 'eta' needs a number"),
            ("trials = 1000.5", "line 1: 'trials' needs an integer"),
        ],
    )
    def test_syntax_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    def test_constraint_violations_become_config_errors(self):
        with pytest.raises(ConfigError, match="p_n"):
            parse_config("p_n = 0.6")
        with pytest.raises(ConfigError, match="trials"):
            parse_config("trials = 0")

    def test_readme_table_lists_the_defaults(self):
        readme = Path(__file__).parents[1] / "README.md"
        table = readme.read_text(encoding="utf-8").split("Keys and defaults:")[1]
        documented = {}
        for line in table.strip().split("\n\n")[0].splitlines()[2:]:
            keys, defaults, _ = (cell.strip().split(", ") for cell in line.strip("|").split("|"))
            # one default given for several keys holds for each of them
            documented.update(zip(keys, defaults * len(keys) if len(defaults) == 1 else defaults))
        assert documented == {key: str(value) for key, value in cli._DEFAULTS.items()}

    def test_every_key_reaches_its_field(self):
        text = "\n".join(
            [
                "snr_db = 7.5",
                "alpha = 0.45",
                "delta = 0.2",
                "eta = 0.55",
                "v = 3.0",
                "d1 = 0.35",
                "d2 = 1.5",
                "p_n = 0.15",
                "p_f = 0.6",
                "p_total = 0.75",
                "r1 = 0.5",
                "r2 = 1.5",
                "r3 = 0.75",
                "trials = 5000",
                "seed = 7",
            ]
        )
        expected_params = model.SystemParams(
            rho=db_to_linear(7.5),
            alpha=0.45,
            delta=0.2,
            eta=0.55,
            v=3.0,
            d1=0.35,
            d2=1.5,
            p_n=0.15,
            p_f=0.6,
            p_total=0.75,
            r1=0.5,
            r2=1.5,
            r3=0.75,
        )
        expected_cfg = EstimatorConfig(trials=5000, seed=7)
        defaults, default_cfg = parse_config("")
        for field in dataclasses.fields(expected_params):
            name = field.name
            assert getattr(expected_params, name) != getattr(defaults, name), name
        assert expected_cfg.trials != default_cfg.trials
        assert expected_cfg.seed != default_cfg.seed
        assert parse_config(text) == (expected_params, expected_cfg)


class TestSweepSpec:
    def test_grid_sizes(self):
        assert len(SweepSpec("snr_db", 0.0, 30.0, 5.0).values()) == 7
        assert len(SweepSpec("alpha", 0.1, 0.8, 0.1).values()) == 8
        assert len(SweepSpec("d1", 0.1, 0.9, 0.1).values()) == 9
        assert SweepSpec("snr_db", 15.0, 15.0, 5.0).values() == [15.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec("snr_db", 0.0, 30.0, 0.0)
        with pytest.raises(ValueError):
            SweepSpec("snr_db", 30.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            SweepSpec("snr", 0.0, 30.0, 5.0)
        with pytest.raises(ValueError):
            SweepSpec("snr_db", 0.0, 30.0, 5.0, metrics=("esc", "latency"))
        with pytest.raises(ValueError):
            SweepSpec("snr_db", 0.0, 30.0, 5.0, protocols=())


def csv_text(rows) -> str:
    buffer = io.StringIO()
    write_csv(rows, buffer)
    return buffer.getvalue()


def assert_same_sweep(a, b):
    """Two run_sweep results hold the same table bits, CSV bytes and reports."""
    (rows_a, reports_a), (rows_b, reports_b) = a, b
    assert rows_a.table.tobytes() == rows_b.table.tobytes()
    assert csv_text(rows_a) == csv_text(rows_b)
    assert reports_a == reports_b


class TestRunSweep:
    def small_inputs(self, **overrides):
        params, cfg = parse_config("trials = 2000")
        spec = SweepSpec(
            overrides.pop("variable", "snr_db"),
            overrides.pop("start", 10.0),
            overrides.pop("stop", 15.0),
            overrides.pop("step", 5.0),
            **overrides,
        )
        return spec, params, cfg

    def test_row_layout_and_order(self):
        spec, params, cfg = self.small_inputs()
        rows, reports = run_sweep(spec, params, cfg)
        assert reports == []
        assert rows.table.shape == (2, 8 + 6, 3)
        ehs_rows = rows.layout[:8]
        assert all(protocol == "ehs-mrc" for protocol, *_ in ehs_rows)
        assert [(metric, symbol) for _, metric, symbol, _ in ehs_rows] == [
            ("esc", "x1"),
            ("esc", "x2"),
            ("esc", "x3"),
            ("esc", "sum"),
            ("op", "x1"),
            ("op", "x2"),
            ("op", "x3"),
            ("ee", "-"),
        ]
        hs_rows = rows.layout[8:14]
        assert all(protocol == "hs-sc" for protocol, *_ in hs_rows)
        # the baseline never transmits x1, so those rows are dropped
        assert [(metric, symbol) for _, metric, symbol, _ in hs_rows] == [
            ("esc", "x2"),
            ("esc", "x3"),
            ("esc", "sum"),
            ("op", "x2"),
            ("op", "x3"),
            ("ee", "-"),
        ]
        assert rows.values == [10.0, 15.0]
        assert rows.variable == "snr_db"
        assert rows.trials == 2000 and rows.seed == 42

    def test_analytic_cells(self):
        spec, params, cfg = self.small_inputs(stop=10.0)
        rows, _ = run_sweep(spec, params, cfg)
        has_form = {entry[:3]: entry[3] for entry in rows.layout}
        for key in (("ehs-mrc", "esc", "x1"), ("ehs-mrc", "op", "x3"), ("ehs-mrc", "ee", "-")):
            assert has_form[key]
        for key in (("hs-sc", "esc", "x3"), ("hs-sc", "esc", "sum"), ("hs-sc", "ee", "-")):
            assert not has_form[key]
        for protocol in ("ehs-mrc", "hs-sc"):
            assert has_form[(protocol, "esc", "x2")]
            assert has_form[(protocol, "op", "x2")]
        # the table's analytic cell is NaN exactly where a row has no closed form
        [point] = rows.table
        assert [math.isnan(ana) for ana in point[:, 0]] == [not form for *_, form in rows.layout]

    def test_rows_match_direct_estimates(self):
        # one multi-point call per sweep gives every (point, protocol) the
        # estimate of a call with that pair alone, at any worker count: a
        # full chunk of one-point tiles, then a chunk of 8199 trials whose
        # one tile holds all three points
        trials = montecarlo.CHUNK_TRIALS + montecarlo.CHUNK_TRIALS // 4 + 7
        spec, params, _ = self.small_inputs(stop=10.0)
        cfg = EstimatorConfig(trials=trials, seed=42)
        grid = [model.SystemParams(rho=db_to_linear(value)) for value in spec.values()]
        points = [(p, model.variances_from_distances(p)) for p in grid]
        pairs = [(value, protocol) for value in spec.values() for protocol in spec.protocols]
        alone = [
            next(montecarlo.estimate_metrics(*point, (protocol,), cfg))
            for point in points
            for protocol in spec.protocols
        ]
        namespaces = stacked(points)
        for workers in (1, 2):
            call = montecarlo.estimate_metrics(*namespaces, spec.protocols, cfg, workers=workers)
            assert list(call) == alone
            rows, _ = run_sweep(spec, params, cfg, workers=workers)
            by_key = {
                (value, *entry[:3]): cells
                for value, point in zip(rows.values, rows.table.tolist())
                for entry, cells in zip(rows.layout, point)
            }
            for (value, protocol), est in zip(pairs, alone):
                for metric_id, (metric, symbol) in cli._ROW_LAYOUT.items():
                    cells = by_key.get((value, protocol.value, metric, symbol))
                    if cells is not None:
                        assert tuple(cells[1:]) == (
                            est[metric_id].mean,
                            est[metric_id].std_error,
                        )

    @pytest.mark.parametrize(
        "variable, start, stop, step",
        [("snr_db", 0.0, 10.0, 5.0), ("alpha", 0.2, 0.4, 0.1), ("d1", 0.3, 0.5, 0.1)],
    )
    def test_each_trial_drawn_once_per_sweep(self, variable, start, stop, step, monkeypatch):
        # the gains depend only on (seed, trial), so every (point, protocol)
        # of a sweep shares one draw of each chunk
        drawn = []

        def counting(seed, start, stop, out=None):
            drawn.append(stop - start)
            return uniform_lanes(seed, start, stop, out=out)

        monkeypatch.setattr(_philox, "uniform_lanes", counting)
        spec, params, _ = self.small_inputs(variable=variable, start=start, stop=stop, step=step)
        cfg = EstimatorConfig(trials=montecarlo.CHUNK_TRIALS + 1000, seed=42)
        rows, _ = run_sweep(spec, params, cfg)
        assert {(value, protocol) for value in rows.values for protocol, *_ in rows.layout} == {
            (value, protocol.value) for value in spec.values() for protocol in Protocol
        }
        assert sum(drawn) == cfg.trials

    def test_metric_subset(self):
        spec, params, cfg = self.small_inputs(stop=10.0, metrics=("op",))
        rows, _ = run_sweep(spec, params, cfg)
        assert rows.table.shape == (1, 5, 3)
        assert [(protocol, symbol) for protocol, _, symbol, _ in rows.layout] == [
            ("ehs-mrc", "x1"),
            ("ehs-mrc", "x2"),
            ("ehs-mrc", "x3"),
            ("hs-sc", "x2"),
            ("hs-sc", "x3"),
        ]

    def test_sweep_grid_validation(self, monkeypatch):
        # the point that leaves its range fails with that parameter's own
        # check, before any grid point is simulated
        def spy(*args, **kwargs):
            raise AssertionError("estimate_metrics ran before the grid ends were checked")

        monkeypatch.setattr(montecarlo, "estimate_metrics", spy)
        cases = [
            ("alpha", 0.5, 1.0, 0.5, r"alpha must lie in \(0, 1\), got 1.0"),
            ("d1", 0.5, 1.0, 0.5, "need 0 < d1 < d2, got d1=1.0, d2=1.0"),
            (
                "alpha",
                0.5,
                0.9995,
                0.4995,
                r"decode threshold 2\^\(2\*rate/\(1-alpha\)\) overflows at rate=1.0, "
                "alpha=0.9995",
            ),
        ]
        for variable, start, stop, step, message in cases:
            spec, params, cfg = self.small_inputs(
                variable=variable, start=start, stop=stop, step=step
            )
            with pytest.raises(ValueError, match=message):
                run_sweep(spec, params, cfg)

    def test_worker_invariance(self):
        spec, params, cfg = self.small_inputs()
        assert_same_sweep(
            run_sweep(spec, params, cfg, workers=1), run_sweep(spec, params, cfg, workers=3)
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "variable, start, stop, step",
        [("snr_db", 0.0, 10.0, 5.0), ("alpha", 0.1, 0.2, 0.1), ("d1", 0.2, 0.4, 0.1)],
    )
    def test_validate_reports_the_base_point_from_the_same_call(
        self, variable, start, stop, step, workers
    ):
        # the base point (15 dB, alpha 0.3, d1 0.5) is not on the grid; it
        # joins the sweep's one call as one more value of the swept field, so
        # on a d1 grid its variances come from the call's arrays. A point's
        # estimate is the one a call with that point alone gives, at any
        # worker count
        spec, params, _ = self.small_inputs(variable=variable, start=start, stop=stop, step=step)
        cfg = EstimatorConfig(trials=montecarlo.CHUNK_TRIALS + 1000, seed=42)
        varz = model.variances_from_distances(params)
        alone = [
            montecarlo.compare_with_analytic(
                params, varz, protocol,
                next(montecarlo.estimate_metrics(params, varz, (protocol,), cfg)),
            )
            for protocol in spec.protocols
        ]
        plain, _ = run_sweep(spec, params, cfg)
        assert_same_sweep(
            run_sweep(spec, params, cfg, workers=workers, validate=True), (plain, alone)
        )


@st.composite
def checked_grids(draw):
    """(spec, params) of an SNR, alpha or d1 grid near the edges of its checks."""
    config = {
        "snr_db": draw(st.sampled_from([-3200.0, -190.0, 15.0, 2000.0])),
        "v": draw(st.sampled_from([0.0, 2.0, 3.7, 50.0, 1050.0])),
        "d2": draw(st.sampled_from([1.0, 2.0, 1e6])),
        "r3": draw(st.sampled_from([1.0, 6.0, 380.0])),
    }
    variable = draw(st.sampled_from(["snr_db", "alpha", "d1"]))
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    if variable == "snr_db":
        start = draw(st.floats(min_value=-3400.0, max_value=3100.0))
        width = draw(st.floats(min_value=0.0, max_value=400.0))
    elif variable == "alpha":
        start = draw(st.floats(min_value=1e-9, max_value=1.0, exclude_max=True))
        width = (1.0 - start) * draw(unit)
    else:
        start = config["d2"] * draw(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
        width = (config["d2"] - start) * draw(unit)
    stop = start + width
    # the step comes from the rounded stop, so the grid has about count + 1 points
    count = draw(st.integers(min_value=1, max_value=12))
    step = (stop - start) / count or 1.0
    params = model.SystemParams(rho=db_to_linear(config.pop("snr_db")), **config)
    return SweepSpec(variable, start, stop, step), params


class StopSweep(Exception):
    pass


class TestGridEnds:
    @settings(max_examples=300, deadline=None)
    @given(checked_grids())
    def test_interior_points_are_the_constructors(self, grid):
        # run_sweep checks the two grid ends and builds the points between
        # without the constructors' checks: each must pass them, and the
        # grid's namespaces must carry, at every point, the bits of the
        # params and variances the constructors build there; a field is an
        # array with one value per point or a float that every point holds
        spec, params = grid
        values = spec.values()
        try:
            for end in cli._grid_params(spec, params, (values[0], values[-1])):
                model.variances_from_distances(end)
                thresholds(end)
        except ValueError:
            assume(False)
        seen = []

        def spy(params, varz, protocols, cfg, workers=1):
            seen.extend((params, varz))
            assert protocols == spec.protocols
            raise StopSweep

        with mock.patch.object(montecarlo, "estimate_metrics", spy), pytest.raises(StopSweep):
            run_sweep(spec, params, EstimatorConfig(trials=1, seed=1))

        rebuilt = cli._grid_params(spec, params, values)
        rebuilt_varz = [model.variances_from_distances(p) for p in rebuilt]
        for p in rebuilt:
            thresholds(p)
        for namespace, objects in zip(seen, (rebuilt, rebuilt_varz)):
            names = [field.name for field in dataclasses.fields(objects[0])]
            assert sorted(vars(namespace)) == sorted(names)
            for name in names:
                value = getattr(namespace, name)
                assert type(value) is float or value.shape == (len(values),), name
                want = np.array([getattr(obj, name) for obj in objects], dtype=np.float64)
                assert np.broadcast_to(value, len(values)).tobytes() == want.tobytes(), name


def plain_csv(rows) -> str:
    """The CSV of rows, formatted one row of its table and one %.9g at a time."""
    lines = [cli.CSV_HEADER] + [
        f"{rows.variable},{value:.9g},{protocol},{metric},{symbol},"
        f"{format(ana, '.9g') if has_form else ''},{sim:.9g},{se:.9g},{rows.trials},{rows.seed}"
        for value, point in zip(rows.values, rows.table.tolist())
        for (protocol, metric, symbol, has_form), (ana, sim, se) in zip(rows.layout, point)
    ]
    return "\n".join(lines) + "\n"


# the last two grids hold 12 values of only 2 distinct bit patterns
REPEATS = ["--start", "0.5", "--stop", "0.5000000000000001", "--step", "1e-17"]
PLAIN_CSV_ARGVS = {
    "snr": [],
    "alpha": ["--sweep", "alpha"],
    "d1": ["--sweep", "d1"],
    "one-point": ["--start", "10", "--stop", "10"],
    "op": ["--metrics", "op"],
    "hs-sc": ["--protocol", "hs-sc", "--sweep", "d1"],
    "validate": ["--validate", "--stop", "5"],
    "alpha-repeats": ["--sweep", "alpha", *REPEATS],
    "d1-repeats": ["--sweep", "d1", *REPEATS],
}


class TestWriteCsv:
    def rows(self):
        spec, params, cfg = TestRunSweep().small_inputs(stop=10.0)
        return run_sweep(spec, params, cfg)[0]

    def test_format(self):
        rows = self.rows()
        buffer = io.StringIO()
        write_csv(rows, buffer)
        text = buffer.getvalue()
        lines = text.split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert lines[-1] == ""  # trailing newline, LF only
        assert "\r" not in text
        assert len(lines) == 1 + len(rows.values) * len(rows.layout) + 1
        assert all(line.count(",") == 9 for line in lines[1:-1])
        # baseline sum row has no closed form: empty analytic cell
        hs_sum = next(
            line
            for line in lines[1:-1]
            if line.split(",")[2:5] == ["hs-sc", "esc", "sum"]
        )
        assert hs_sum.split(",")[5] == ""

    def test_nine_significant_digits(self):
        assert cli._fmt(0.17921899886) == "0.179218999"
        assert cli._fmt(1.0) == "1"
        assert cli._fmt(0.0) == "0"
        assert cli._fmt(102.4577961894555) == "102.457796"

    def test_byte_identical_and_path_output(self, tmp_path):
        rows = self.rows()
        a, b = io.StringIO(), io.StringIO()
        write_csv(rows, a)
        write_csv(rows, b)
        assert a.getvalue() == b.getvalue()
        target = tmp_path / "out.csv"
        write_csv(rows, target)
        assert target.read_text(encoding="utf-8") == a.getvalue()

    def test_empty_rows_rejected(self):
        # no grid values, or no rows per value, leave an empty table
        for values, layout in (([], [("hs-sc", "op", "x2", False)]), ([10.0], [])):
            table = np.empty((len(values), len(layout), 3))
            with pytest.raises(ValueError, match="no rows to write"):
                write_csv(cli.SweepRows("snr_db", values, layout, table, 1000, 42), io.StringIO())

    @pytest.mark.parametrize("argv", PLAIN_CSV_ARGVS.values(), ids=PLAIN_CSV_ARGVS.keys())
    def test_main_matches_a_plain_row_formatter(self, argv, capsys, monkeypatch):
        # main writes the CSV from run_sweep's arrays; reading each row of
        # what run_sweep returned and formatting it alone gives every byte
        swept = []

        def recording(*args, **kwargs):
            swept.append(run_sweep(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(cli, "run_sweep", recording)
        assert main(argv + ["--trials", "3000"]) == 0
        [(rows, _)] = swept
        assert capsys.readouterr().out == plain_csv(rows)
        if argv[-len(REPEATS):] == REPEATS:
            assert len({value.hex() for value in rows.values}) == 2
            assert rows.table.shape == (12, 8 + 6, 3)

    def test_rows_that_share_values_match_a_plain_row_formatter(self):
        # write_csv formats each grid value once for all of its rows; equal
        # but distinct values, 0.0 against -0.0, an empty analytic cell and
        # -0.0 and 1e-300 cells must still print as each row alone would
        first, second = float("0.1"), float("0.1")
        assert first == second and first is not second and 0.0 == -0.0
        values = [first, second, 0.0, -0.0]
        layout = (("hs-sc", "op", "x2", False), ("ehs-mrc", "op", "x3", True))
        table = np.empty((len(values), len(layout), 3))
        table[:, 0, 0] = np.nan
        table[:, 1, 0] = [1.5, -0.0, 1e-300, 2.0]
        table[:, :, 1] = 0.25 * np.arange(len(values) * len(layout)).reshape(len(values), -1)
        table[:, :, 2] = -0.0
        rows = cli.SweepRows("snr_db", values, layout, table, 1000, 42)
        buffer = io.StringIO()
        write_csv(rows, buffer)
        assert buffer.getvalue() == plain_csv(rows)
        assert ",-0,hs-sc,op,x2,,1.5,-0,1000,42\n" in buffer.getvalue()
        assert ",ehs-mrc,op,x3,1e-300," in buffer.getvalue()


CSV_DIGESTS = [
    # default SNR grid; 40000 trials span two chunks, so the merge runs
    (["--trials", "40000"], "7bb739a24ea3aeabca8759f746a4e153c166c82202daa5ebaea6511d39276027"),
    (
        ["--sweep", "alpha", "--trials", "5000"],
        "158e6c8fb20be60dff1c1498c1d544ae8c16a7445d18b0bcd2ab0c6d1e515338",
    ),
    (
        ["--sweep", "d1", "--trials", "5000"],
        "afb7127eb9017501bbdd6c0bd511ff8b399d8ed3f4fdde3ba4253e005c01d400",
    ),
    # one protocol per kernel pass
    (
        ["--protocol", "hs-sc", "--trials", "40000"],
        "634fcc99843fc2e8e822dc813983ae09e3668f7aa2175e9a76772ab95caf73fb",
    ),
    (
        ["--protocol", "ehs-mrc", "--trials", "40000"],
        "7fba3f8cbe7bd5fd8624ad48a8724b39cb44bef9636e84756ca1c7d7f532420d",
    ),
    # the benchmark's grid-dense argv: 491 points, each one kernel pass
    (
        ["--sweep", "d1", "--start", "0.01", "--stop", "0.99", "--step", "0.002",
         "--trials", "1000"],
        "77dcc695b4e33f3fb9cdd239035d6bc4ec6f9093e28398ed004f1ece85aa8260",
    ),
    # n = 1, so every standard error is 0
    (["--trials", "1"], "811999b1787f739b41e40673d6419df02f224e7b4f7d0b62b0fac662a9789892"),
    # one chunk of 8193 trials: the 7 points run as tiles of 3, 3 and 1
    (
        ["--metrics", "ee", "--trials", "8193"],
        "96a0e1af7ba7aabaa16f171ad1158eed33af6b2251cf96e7a4d665cd1961600a",
    ),
    # the closed forms of a point with one protocol
    (
        ["--protocol", "hs-sc", "--sweep", "d1", "--trials", "2000"],
        "b27a1718f4071dc49d0b83085e5a9c9f49dcf3aaf7afe2b9242523dd5ec30730",
    ),
    # thresholds that change from point to point, and filtered rows
    (
        ["--sweep", "alpha", "--protocol", "ehs-mrc", "--metrics", "op", "--trials", "1000"],
        "a49fede8da8d1ff01089dd13eda66ff466c1f9e3dee9b6c97f8b953c682c0f22",
    ),
    # 33 points: a full chunk of one-point tiles, then a 1000-trial
    # chunk whose points run as tiles of 32 and 1
    (
        ["--sweep", "snr", "--start", "0", "--stop", "32", "--step", "1",
         "--trials", "33768"],
        "b592d15a61250248ef133976a69b447891ef5a8c87e21b939cc22ee42de53483",
    ),
    # 91 points in tiles of 46 and 45, with thresholds that vary inside a tile
    (
        ["--sweep", "alpha", "--start", "0.05", "--stop", "0.95", "--step", "0.01",
         "--trials", "700", "--protocol", "hs-sc"],
        "abd8f6095f8650639ada23212cf38627b16d8594975460269944827d6a11a49a",
    ),
    # dense grids of 451 alpha and 401 SNR points, each finished as
    # one table of (point, protocol) rows
    (
        ["--sweep", "alpha", "--start", "0.05", "--stop", "0.95", "--step", "0.002",
         "--trials", "1000"],
        "bdb269b4476ebb1faed07f6a7c2289de3d1734741eefae3d10fe5a8b55fd53c9",
    ),
    (
        ["--sweep", "snr", "--start", "0", "--stop", "40", "--step", "0.1",
         "--trials", "1000"],
        "248e14270662a52e916a03cfb0d0313731d465819e65df663405420f25ed534b",
    ),
]
CSV_IDS = [
    "snr",
    "alpha",
    "d1",
    "hs-sc",
    "ehs-mrc",
    "grid-dense",
    "one-trial",
    "ee-8193",
    "hs-sc-d1",
    "alpha-op",
    "snr-33",
    "alpha-hs-sc-91",
    "alpha-451",
    "snr-401",
]


class TestMain:
    def test_small_run_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(SMALL + ["--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + 2 * (8 + 6)

    def test_stdout_default(self, capsys):
        assert main(SMALL + ["--protocol", "ehs-mrc", "--metrics", "ee"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(cli.CSV_HEADER)
        assert len(captured.out.splitlines()) == 1 + 2

    def test_protocol_and_metric_filters(self, tmp_path):
        out = tmp_path / "op.csv"
        assert main(SMALL + ["--protocol", "hs-sc", "--metrics", "op", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 2
        assert all(",hs-sc,op," in line for line in lines[1:])

    def test_config_file(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("trials = 1500\nseed = 9\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["--config", str(config), "--stop", "0.0", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert all(line.endswith(",1500,9") for line in lines[1:])

    def test_cli_trials_override_config(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("trials = 1500\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        code = main(
            ["--config", str(config), "--trials", "800", "--stop", "0.0", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert all(",800,42" in line for line in lines[1:])

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_usage_errors_exit_two(self, capsys):
        assert main(["--no-such-flag"]) == 2
        assert main(["--sweep", "bogus"]) == 2

    @pytest.mark.parametrize("option", ["--trials", "--start", "--sweep", "--config", "--out"])
    def test_double_dash_value_exits_two(self, option, capsys):
        assert main([f"{option}=--"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"argument {option}: expected one argument" in err

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.conf")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("alpha = 1.5\n", encoding="utf-8")
        assert main(["--config", str(config)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_two_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"alpha = 0.3\n\xff\n")
        assert main(["--config", str(config), "--stop", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read config: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_bad_sweep_range_exits_two(self, capsys):
        assert main(["--start", "20", "--stop", "10"]) == 2

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--sweep", "alpha", "--start", "0.999", "--stop", "0.999"], "alpha=0.999"),
            (["--start", "4000", "--stop", "4000"], "snr_db=4000.0"),
            (["--sweep", "d1", "--start", "1e-300", "--stop", "1e-300"], "d1=1e-300"),
            (["--workers", "0"], "--workers"),
            (["--workers", "-3"], "--workers"),
            (["--seed", "-1"], "seed"),
            (["--seed", str(2 ** 64)], "seed"),
            (["--start", "2000", "--stop", "2000"], "snr_db=2000 (rho=1e+200)"),
            (["--start", "3080", "--stop", "3080"], "snr_db=3080 (rho=1e+308)"),
            (["--start=-inf", "--stop", "0"], "start must be finite, got -inf"),
            (["--stop", "inf"], "stop must be finite, got inf"),
            (["--start", "nan"], "start must be finite, got nan"),
            (["--step", "inf"], "step must be finite, got inf"),
            (["--step", "1e-12"], "sweep grid of 30000000000001 points exceeds 1000000"),
            # two chunks, so the overflow also meets the fold of their moments
            (["--start", "3000", "--stop", "3000", "--trials", "32769"], "moments overflow"),
            # one point over the bound, whose count a rounded format would hide
            (
                ["--start", "0", "--stop", "1e-7", "--step", "1e-13"],
                "sweep grid of 1000001 points exceeds 1000000",
            ),
            # a width that overflows leaves no count
            (["--start=-1e308", "--stop", "1e308"], "sweep grid of inf points exceeds"),
        ],
    )
    def test_bad_input_exits_two_with_one_line(self, argv, fragment, capsys):
        # the default goes first, so a case may set its own trial count
        assert main(["--trials", "100"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize(
        "config, argv, fragment",
        [
            ("r1 = nan", ["--stop", "0"], "r1 must be finite, got nan"),
            ("v = nan", ["--stop", "0"], "v must be finite, got nan"),
            ("p_f = inf\np_total = inf", ["--stop", "0"], "p_f must be finite, got inf"),
            # a subnormal eta leaves a relay power whose ratio overflows
            ("eta = 1e-320", ["--stop", "0"], "energy efficiency undefined at snr_db=0"),
            (
                "snr_db = -inf",
                ["--sweep", "alpha", "--start", "0.3", "--stop", "0.3", "--protocol", "hs-sc"],
                "energy efficiency undefined at snr_db=-inf (rho=0)",
            ),
            (
                "snr_db = -inf",
                ["--sweep", "alpha", "--start", "0.3", "--stop", "0.3", "--protocol", "ehs-mrc"],
                "energy efficiency undefined at snr_db=-inf (rho=0)",
            ),
            # --validate runs at the config point, not on the sweep grid
            ("snr_db = 2000", ["--stop", "0", "--validate"], "snr_db=2000 (rho=1e+200)"),
            # the config names no rho, so the message names snr_db
            ("snr_db = inf", ["--stop", "0"], "snr_db must be finite or -inf, got inf"),
            ("snr_db = nan", ["--stop", "0"], "snr_db must be finite or -inf, got nan"),
        ],
    )
    def test_bad_config_value_exits_two_with_one_line(
        self, config, argv, fragment, tmp_path, capsys
    ):
        path = tmp_path / "bad.conf"
        path.write_text(config + "\n", encoding="utf-8")
        assert main(["--config", str(path), *argv, "--trials", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "config, variable, start, stop, step, first_kind",
        [
            # d1 = 1e-4 makes the near-user gain variance 1e200, so the first
            # point's simulated moments overflow; at d1 = 999999 the closed-form
            # EE of the second point overflows
            ("v = 50\nd2 = 1e6\nsnr_db = -190", "d1", 1e-4, 999999.0, 999998.9999, "estimate"),
            # the closed-form EE overflows at -3200 dB and the simulated
            # moments overflow at 2000 dB
            ("", "snr_db", -3200.0, 2000.0, 5200.0, "closed form"),
        ],
    )
    def test_only_the_first_failing_point_is_reported(
        self, config, variable, start, stop, step, first_kind, tmp_path, capsys
    ):
        # a point's estimate is checked right before its closed forms, and
        # the points in grid order, so neither kind of error at a later
        # point may overtake one at an earlier point
        params, _ = parse_config(config)
        cfg = EstimatorConfig(trials=1000, seed=42)
        spec = SweepSpec(variable, start, stop, step)
        errors = []
        for p in cli._grid_params(spec, params, spec.values()):
            varz = model.variances_from_distances(p)
            kinds = {}
            try:
                next(montecarlo.estimate_metrics(p, varz, (Protocol.EHS_MRC,), cfg))
            except ValueError as exc:
                kinds["estimate"] = str(exc)
            try:
                analytic.closed_forms(p, varz, (Protocol.EHS_MRC,))
            except ValueError as exc:
                kinds["closed form"] = str(exc)
            errors.append(kinds)
        # each of the two points fails in one way only, the second in the other
        [(kind, message)], [other] = errors[0].items(), errors[1]
        assert kind == first_kind and other != first_kind
        path = tmp_path / "run.conf"
        path.write_text(config + "\n", encoding="utf-8")
        sweep = {"snr_db": "snr"}.get(variable, variable)
        argv = ["--config", str(path), "--sweep", sweep, "--start", repr(start), "--stop",
                repr(stop), "--step", repr(step), "--protocol", "ehs-mrc", "--trials", "1000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "snr_db, ee", [("-3000", "1.94935436"), ("-3200", "1.94925328")], ids=["-3000", "-3200"]
    )
    def test_simulated_ee_where_relay_power_squared_underflows(self, snr_db, ee, capsys):
        # the square of the mean relay power underflows to 0 here, yet the
        # ratio is defined: the capacities keep their relative precision
        # however small the SNR, so the simulated EE is the ratio of two
        # tiny means; its standard error reads 0, as the squared deviations
        # of values near 1e-300 underflow
        argv = ["--start", snr_db, "--stop", snr_db, "--metrics", "ee", "--trials", "1000"]
        assert main(argv + ["--protocol", "hs-sc"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [f"snr_db,{snr_db},hs-sc,ee,-,,{ee},0,1000,42"]

    def test_enhanced_ee_rows_at_extreme_low_snr(self, capsys):
        # the closed-form EE of the enhanced protocol is about 2e299 at
        # -3000 dB, where the simulated capacities keep their precision,
        # and overflows at -3200 dB, where its error names the closed
        # form's mean relay power
        argv = ["--metrics", "ee", "--trials", "1000", "--protocol", "ehs-mrc"]
        assert main(argv + ["--start", "-3000", "--stop", "-3000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            "snr_db,-3000,ehs-mrc,ee,-,2.08972554e+299,2.19138711,0,1000,42"
        ]
        assert main(argv + ["--start", "-3200", "--stop", "-3200"]) == 2
        params = model.SystemParams(rho=db_to_linear(-3200.0))
        mean_p = analytic.mean_relay_power(params, model.variances_from_distances(params))
        assert capsys.readouterr().err == (
            "error: energy efficiency undefined at snr_db=-3200 (rho=9.99989e-321) with gain "
            f"variances (4, 1, 4): mean relay power is {mean_p:.6g}\n"
        )

    def test_module_entry_point_and_light_package_import(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "ehs_cnoma.cli", "--trials", "10", "--start", "0", "--stop", "0"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout.startswith(cli.CSV_HEADER)
        assert run.stderr == ""
        lazy = ["numpy.random", "concurrent.futures", "ehs_cnoma.cli"]
        probe = f"import sys, ehs_cnoma; print(*[name in sys.modules for name in {lazy}])"
        run = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.split() == ["False"] * len(lazy)

    def test_benchmark_import_probe_prints_one_float(self):
        # the benchmark times `import ehs_cnoma` with this probe in an
        # isolated interpreter and reads its stdout as one float
        root = Path(__file__).parents[1]
        tree = ast.parse((root / "perfbench" / "run.py").read_text(encoding="utf-8"))
        [probe] = [
            node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "IMPORT_PROBE"
        ]
        run = subprocess.run(
            [sys.executable, "-I", "-c", probe, str(root / "src")],
            capture_output=True, text=True, check=True, cwd=root,
        )
        assert run.stderr == ""
        [line] = run.stdout.splitlines()
        assert math.isfinite(float(line))
        # the benchmark's meta line reads the chunk size
        assert isinstance(montecarlo.CHUNK_TRIALS, int)

    def test_inprocess_ab_runs_a_benchmark_workload(self):
        # tools/inprocess_ab.py reads the benchmark's WORKLOADS and calls
        # cli.main in process, so a change to either must keep it running;
        # a value that starts with a dash and has no space goes after "="
        root = Path(__file__).parents[1]
        for extra in (["--extra", "--trials 10"], ["--extra=--validate --trials 10"]):
            run = subprocess.run(
                [sys.executable, str(root / "tools" / "inprocess_ab.py"), str(root), str(root),
                 "--workload", "grid-dense", "--rounds", "2", *extra],
                capture_output=True, text=True, cwd=root,
            )
            assert run.returncode == 0, run.stderr
            assert "B/A median" in run.stdout

    def test_inprocess_ab_both_orders_shows_why_it_failed(self, tmp_path):
        # a child run that fails, here on trees whose CSV header differs,
        # passes on its output and its exit code
        root = Path(__file__).parents[1]
        for part in ("src", "perfbench"):
            shutil.copytree(root / part, tmp_path / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        changed = tmp_path / "src" / "ehs_cnoma" / "cli.py"
        text = changed.read_text(encoding="utf-8")
        changed.write_text(text.replace('CSV_HEADER = "', 'CSV_HEADER = "other,'), encoding="utf-8")
        run = subprocess.run(
            [sys.executable, str(root / "tools" / "inprocess_ab.py"), str(root), str(tmp_path),
             "--workload", "grid-dense", "--rounds", "2", "--extra", "--trials 10",
             "--both-orders"],
            capture_output=True, text=True, cwd=root,
        )
        assert run.returncode == 1
        assert "round 0: the trees print different bytes" in run.stderr

    def test_benchmark_hooks_count_what_the_argv_asks(self, capsys, monkeypatch):
        # the benchmark's traced run wraps package functions by name; every
        # layer must keep a hook, and the exact counts it reports must follow
        # from the argv alone
        root = Path(__file__).parents[1]
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", root / "perfbench" / "spans.py"
        )
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        assert tracer.absent == []
        trials = montecarlo.CHUNK_TRIALS + 1000
        argv = ["--trials", str(trials), "--stop", "5", "--workers", "1"]
        with tracer.installed(), tracer.span("cli:main", "cli"):
            assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        metrics = spans.layer_metrics(tracer.spans, tracer.absent)
        # snr_db 0 and 5, each for both protocols in one kernel pass; two
        # chunks, each drawn in one call; the full chunk runs one tile per
        # point and the 1000-trial chunk one tile of both points
        points, chunks = 2, 2
        assert metrics["philox.calls"] == metrics["gains.calls"] == chunks
        assert metrics["philox.blocks"] == trials
        assert metrics["kernel.calls"] == points + 1
        assert metrics["kernel.trials"] == trials * points
        # a header, then 8 ehs-mrc and 6 hs-sc rows per point
        assert len(out.splitlines()) - 1 == 2 * (8 + 6)

    def test_threaded_run_leaves_no_thread_behind(self, capsys):
        before = threading.active_count()
        trials = str(2 * montecarlo.CHUNK_TRIALS + 1)
        assert main(["--trials", trials, "--stop", "0", "--workers", "2"]) == 0
        assert threading.active_count() == before
        assert capsys.readouterr().err == ""

    def test_validate_passes(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        code = main(SMALL + ["--validate", "--trials", "20000", "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "VALIDATE ehs-mrc c_x1:" in err
        assert "VALIDATE hs-sc c_x2:" in err
        assert "FAIL" not in err

    def test_validate_flags_exact_disagreement(self, tmp_path, capsys, monkeypatch):
        def broken(params, varz, thr):
            return 0.5

        monkeypatch.setattr(analytic, "op_ceu_x1", broken)
        out = tmp_path / "v.csv"
        code = main(SMALL + ["--validate", "--out", str(out)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "argv, out_digest, err_digest",
        [
            # rows in closed_forms order for both protocols, z only on exact forms
            (
                ["--trials", "3000", "--stop", "5"],
                "55fd36b5dd415b364e23d278255ba9bf8efb811fd3e264a74211e0a11e3fef48",
                "6eaffa3434a7771cf26ec1199132cd2496beb5dab7762ab95888f158d6ce5009",
            ),
            # the base, 15 dB, is a grid point; two chunks
            (
                ["--trials", "40000"],
                "7bb739a24ea3aeabca8759f746a4e153c166c82202daa5ebaea6511d39276027",
                "80145805913d76db322bd62cfa1721cc447f6704bd00210e14c50d6dce6514a8",
            ),
            # the base alpha, 0.3, is no grid value: 0.1 + 2 * 0.1 = 0.30000000000000004
            (
                ["--sweep", "alpha", "--trials", "5000"],
                "158e6c8fb20be60dff1c1498c1d544ae8c16a7445d18b0bcd2ab0c6d1e515338",
                "383eb769b3e3da751675ab6fa86863a1aba0ec4d413b39c5761cd48fc750008b",
            ),
            # one protocol
            (
                ["--protocol", "hs-sc", "--trials", "3000", "--stop", "5"],
                "9ca7a468abfe9be15a0d94ba4cc7f9330a88c5682cb3b1da965b5bb804040df4",
                "e7513e454780a4bbd6a8559c48d55cb7e1a2d7d939967ece88d731bbdd03e1ae",
            ),
        ],
        ids=["snr-3000", "snr-40000", "alpha", "hs-sc"],
    )
    def test_validate_output_pinned(self, argv, out_digest, err_digest, workers, capsys):
        # the CSV is the plain sweep's, whatever --validate adds to the call
        assert main(argv + ["--validate", "--workers", workers]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == out_digest
        assert hashlib.sha256(captured.err.encode("utf-8")).hexdigest() == err_digest

    def test_validate_draws_each_trial_once(self, tmp_path, capsys, monkeypatch):
        # the default run's base point joins the sweep's one estimate call,
        # so its 100000 trials are drawn once for the grid and the base
        calls, blocks = [], []
        estimate_metrics = montecarlo.estimate_metrics

        def counting_estimates(*args, **kwargs):
            calls.append(1)
            return estimate_metrics(*args, **kwargs)

        def counting_lanes(seed, start, stop, out=None):
            blocks.append(stop - start)
            return uniform_lanes(seed, start, stop, out=out)

        monkeypatch.setattr(montecarlo, "estimate_metrics", counting_estimates)
        monkeypatch.setattr(_philox, "uniform_lanes", counting_lanes)
        assert main(["--validate", "--out", str(tmp_path / "v.csv")]) == 0
        assert "VALIDATE hs-sc c_x2:" in capsys.readouterr().err
        assert (len(calls), sum(blocks)) == (1, 100_000)

    @pytest.mark.parametrize(
        "config, argv, code, err",
        [
            # the grid's error comes before the base point's, which is another
            (
                "snr_db = -3200\nr3 = 380",
                ["--sweep", "alpha", "--start", "0.1", "--stop", "0.2"],
                2,
                "error: energy efficiency undefined at snr_db=-3200 (rho=9.99989e-321) with "
                "gain variances (4, 1, 4): mean relay power is 1.46243e-320\n",
            ),
            (
                "snr_db = -3200\nv = 1050\nd2 = 2",
                ["--sweep", "d1", "--start", "1.0", "--stop", "1.2"],
                2,
                "error: energy efficiency undefined at snr_db=-3200 (rho=9.99989e-321) with "
                "gain variances (1, 8.28905e-317, 1): mean relay power is 8.10268e-321\n",
            ),
            # the same grids pass, so the base point's own error comes out
            (
                "r3 = 380",
                ["--sweep", "alpha", "--start", "0.1", "--stop", "0.2"],
                2,
                "error: decode threshold 2^(2*rate/(1-alpha)) overflows at rate=380.0, "
                "alpha=0.3\n",
            ),
            (
                "v = 1050\nd2 = 2",
                ["--sweep", "d1", "--start", "1.0", "--stop", "1.2"],
                2,
                "error: path loss d^(-v) leaves (0, inf) at d1=0.5, d2=2.0, v=1050.0\n",
            ),
            # an error at the base point's estimate or closed forms
            (
                "snr_db = -3200",
                ["--start", "0", "--stop", "5"],
                2,
                "error: energy efficiency undefined at snr_db=-3200 (rho=9.99989e-321) with "
                "gain variances (4, 1, 4): mean relay power is 3.24058e-320\n",
            ),
            # the simulated capacity keeps its precision, so it equals the
            # subnormal exact form; with a standard error of 0, z is 0
            (
                "snr_db = -3200",
                ["--start", "0", "--stop", "5", "--protocol", "hs-sc"],
                0,
                "VALIDATE hs-sc c_x2: analytic=2.02072849e-321 simulated=2.02072849e-321 "
                "std_error=0 z=+0.00 OK\n"
                "VALIDATE hs-sc op_x2_ccu: analytic=0.9 simulated=1 std_error=0 APPROX\n",
            ),
        ],
        ids=["grid-first-alpha", "grid-first-d1", "base-alpha", "base-d1", "base-ee", "base-pass"],
    )
    def test_validate_errors_at_the_base_point(self, config, argv, code, err, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_text(config + "\n", encoding="utf-8")
        argv = ["--config", str(path), *argv, "--trials", "1000", "--validate"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == err
        if code == 2:
            assert captured.out == ""
        else:
            # a validation writes the CSV, passed or failed
            digest = "cf1f653e6088d31c020b4c06dccacbfb3fd87dfb160891d8c59e79510624ea04"
            assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest, workers",
        [
            # one worker keeps the case's own id
            pytest.param(argv, digest, workers, id=name if workers == "1" else f"{name}-workers-2")
            for (argv, digest), name in zip(CSV_DIGESTS, CSV_IDS)
            for workers in ("1", "2")
        ],
    )
    def test_csv_bytes_pinned(self, argv, digest, workers, capsys):
        assert main(argv + ["--workers", workers]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.skipif(
        platform.machine() not in ("x86_64", "AMD64") or int(np.__version__.split(".")[0]) < 2,
        reason="X86_V2 names an x86-64 feature group of numpy 2's dispatch",
    )
    def test_pinned_bytes_hold_at_a_lower_dispatch_level(self):
        # the raw floats differ between numpy's SIMD dispatch levels, but the
        # 9-digit CSV and the validation lines do not; the variable acts on
        # the child alone and turns AVX-512 dispatch off on a host that has it
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(cli.__file__).parents[1]),
            NPY_ENABLE_CPU_FEATURES="X86_V2",
        )
        grid_dense = CSV_DIGESTS[CSV_IDS.index("grid-dense")]
        cases = [
            (*grid_dense, None),
            (*CSV_DIGESTS[CSV_IDS.index("snr")], None),
            (
                ["--trials", "3000", "--stop", "5", "--validate"],
                "55fd36b5dd415b364e23d278255ba9bf8efb811fd3e264a74211e0a11e3fef48",
                "6eaffa3434a7771cf26ec1199132cd2496beb5dab7762ab95888f158d6ce5009",
            ),
        ]
        for argv, out_digest, err_digest in cases:
            run = subprocess.run(
                [sys.executable, "-m", "ehs_cnoma.cli", *argv],
                env=env, capture_output=True, text=True, check=True,
            )
            assert hashlib.sha256(run.stdout.encode("utf-8")).hexdigest() == out_digest
            if err_digest is None:
                assert run.stderr == ""
            else:
                assert hashlib.sha256(run.stderr.encode("utf-8")).hexdigest() == err_digest
