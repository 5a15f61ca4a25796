import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehs_cnoma import analytic, cli, model, montecarlo
from ehs_cnoma.analytic import AnalyticReport, Exactness
from ehs_cnoma.cli import (
    ConfigError,
    SweepSpec,
    db_to_linear,
    linear_to_db,
    main,
    parse_config,
    render_config,
    run_sweep,
    write_csv,
)
from ehs_cnoma.montecarlo import EstimatorConfig
from ehs_cnoma.protocols import Protocol

SMALL = ["--trials", "2000", "--stop", "5.0"]


class TestDbConversion:
    def test_round_trip_on_grid(self):
        for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 7.5):
            assert linear_to_db(db_to_linear(snr_db)) == snr_db

    def test_values(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == 10.0
        with pytest.raises(ValueError):
            linear_to_db(0.0)


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

    def test_render_round_trip(self):
        cases = [
            (model.SystemParams(rho=10.0 ** 1.5), EstimatorConfig(100_000, 42)),
            (
                model.SystemParams(
                    rho=db_to_linear(7.5), alpha=0.45, delta=0.2, eta=0.55, d1=0.35
                ),
                EstimatorConfig(5000, 7),
            ),
        ]
        for params, cfg in cases:
            parsed_params, parsed_cfg = parse_config(render_config(params, cfg))
            assert parsed_params == params
            assert parsed_cfg == cfg


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
        rows = run_sweep(spec, params, cfg)
        assert len(rows) == 2 * (8 + 6)
        ehs_rows = rows[:8]
        assert [(r.metric, r.symbol) for r in ehs_rows] == [
            ("esc", "x1"),
            ("esc", "x2"),
            ("esc", "x3"),
            ("esc", "sum"),
            ("op", "x1"),
            ("op", "x2"),
            ("op", "x3"),
            ("ee", "-"),
        ]
        hs_rows = rows[8:14]
        assert all(r.protocol == "hs-sc" for r in hs_rows)
        # the baseline never transmits x1, so those rows are dropped
        assert [(r.metric, r.symbol) for r in hs_rows] == [
            ("esc", "x2"),
            ("esc", "x3"),
            ("esc", "sum"),
            ("op", "x2"),
            ("op", "x3"),
            ("ee", "-"),
        ]
        assert {r.value for r in rows} == {10.0, 15.0}
        assert all(r.variable == "snr_db" for r in rows)
        assert all(r.trials == 2000 and r.seed == 42 for r in rows)

    def test_analytic_cells(self):
        spec, params, cfg = self.small_inputs(stop=10.0)
        by_key = {(r.protocol, r.metric, r.symbol): r for r in run_sweep(spec, params, cfg)}
        for key in (("ehs-mrc", "esc", "x1"), ("ehs-mrc", "op", "x3"), ("ehs-mrc", "ee", "-")):
            assert by_key[key].analytic is not None
        for key in (("hs-sc", "esc", "x3"), ("hs-sc", "esc", "sum"), ("hs-sc", "ee", "-")):
            assert by_key[key].analytic is None
        for protocol in ("ehs-mrc", "hs-sc"):
            assert by_key[(protocol, "esc", "x2")].analytic is not None
            assert by_key[(protocol, "op", "x2")].analytic is not None

    def test_rows_match_direct_estimates(self):
        spec, params, cfg = self.small_inputs(stop=10.0)
        rows = run_sweep(spec, params, cfg)
        point = model.SystemParams(rho=db_to_linear(10.0))
        varz = model.variances_from_distances(point)
        est = montecarlo.estimate_metrics(point, varz, cfg, Protocol.EHS_MRC)
        by_key = {(r.protocol, r.metric, r.symbol): r for r in rows}
        assert by_key[("ehs-mrc", "esc", "sum")].simulated == est["esc_total"].mean
        assert by_key[("ehs-mrc", "op", "x1")].std_error == est["op_x1"].std_error

    def test_metric_subset(self):
        spec, params, cfg = self.small_inputs(stop=10.0, metrics=("op",))
        rows = run_sweep(spec, params, cfg)
        assert [(r.protocol, r.symbol) for r in rows] == [
            ("ehs-mrc", "x1"),
            ("ehs-mrc", "x2"),
            ("ehs-mrc", "x3"),
            ("hs-sc", "x2"),
            ("hs-sc", "x3"),
        ]

    def test_sweep_grid_validation(self):
        spec, params, cfg = self.small_inputs(variable="alpha", start=0.5, stop=1.0, step=0.5)
        with pytest.raises(ValueError, match="alpha"):
            run_sweep(spec, params, cfg)
        spec, params, cfg = self.small_inputs(variable="d1", start=0.5, stop=1.0, step=0.5)
        with pytest.raises(ValueError, match="d1"):
            run_sweep(spec, params, cfg)

    def test_worker_invariance(self):
        spec, params, cfg = self.small_inputs()
        assert run_sweep(spec, params, cfg, workers=1) == run_sweep(spec, params, cfg, workers=3)


class TestWriteCsv:
    def rows(self):
        spec, params, cfg = TestRunSweep().small_inputs(stop=10.0)
        return run_sweep(spec, params, cfg)

    def test_format(self):
        rows = self.rows()
        buffer = io.StringIO()
        write_csv(rows, buffer)
        text = buffer.getvalue()
        lines = text.split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert lines[-1] == ""  # trailing newline, LF only
        assert "\r" not in text
        assert len(lines) == 1 + len(rows) + 1
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
        with pytest.raises(ValueError):
            write_csv([], io.StringIO())


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

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.conf")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("alpha = 1.5\n", encoding="utf-8")
        assert main(["--config", str(config)]) == 2
        assert "alpha" in capsys.readouterr().err

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
            (["--step", "1e-12"], "sweep grid of 3e+13 points exceeds 1000000"),
        ],
    )
    def test_bad_input_exits_two_with_one_line(self, argv, fragment, capsys):
        assert main(argv + ["--trials", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err

    def test_module_entry_point_and_light_package_import(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "ehs_cnoma.cli", "--trials", "10", "--start", "0", "--stop", "0"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout.startswith(cli.CSV_HEADER)
        assert run.stderr == ""
        probe = "import sys, ehs_cnoma; print('numpy.random' in sys.modules, 'ehs_cnoma.cli' in sys.modules)"
        run = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.split() == ["False", "False"]

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
            return AnalyticReport(0.5, Exactness.EXACT)

        monkeypatch.setattr(analytic, "op_ceu_x1", broken)
        out = tmp_path / "v.csv"
        code = main(SMALL + ["--validate", "--out", str(out)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_validate_output_pinned(self, tmp_path, capsys):
        # rows in METRIC_IDS order for both protocols, z only on exact forms
        argv = ["--trials", "3000", "--stop", "5", "--validate", "--out", str(tmp_path / "v.csv")]
        assert main(argv) == 0
        err = capsys.readouterr().err
        digest = "6eaffa3434a7771cf26ec1199132cd2496beb5dab7762ab95888f158d6ce5009"
        assert hashlib.sha256(err.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
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
        ],
        ids=["snr", "alpha", "d1"],
    )
    def test_csv_bytes_pinned(self, argv, digest, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
