"""Property test of the command line over argv built from every option.

Whatever the input, `main` must answer with exit 0, 1 or 2, print no
traceback or warning, name a bad input in exactly one `error:` line, and
never write a nan or inf cell. The strategy keeps each run cheap: at most
100 trials, at most 4 workers, and at most 10 grid points whenever the
sweep bounds are finite.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehs_cnoma import cli

MAX_TRIALS = 100
MAX_WORKERS = 4
MAX_GRID_POINTS = 10

_JUNK = ["", "abc", "1e", "0x10", "1,5", " ", "--", "1.5.0", "\u0661\u0662\u0663"]
_EXTREME_FLOATS = [
    "0", "-0", "-1", "1e-320", "5e-324", "1e-300", "1e300", "1.7e308", "1e309", "-1e308",
    "1e-9", "0.999999", "1540", "3080", "-400", "-3100", "1_000", "nan", "-inf", "inf",
]
_EXTREME_INTS = ["0", "-1", str(2 ** 64), str(-(2 ** 70)), "1.5", "1e3"]

junk = st.sampled_from(_JUNK)
float_text = st.one_of(
    st.sampled_from(_EXTREME_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    junk,
)
int_text = st.one_of(
    st.sampled_from(_EXTREME_INTS),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70).map(str),
    junk,
)

# (valid value, extreme value) of each option that takes one; the extremes
# of --trials and --workers stay at or below their caps
_UNIT = st.floats(min_value=0.01, max_value=0.99).map(repr)
OPTIONS = {
    "--sweep": (st.sampled_from(["snr", "alpha", "d1"]), junk),
    "--start": (_UNIT, float_text),
    "--stop": (_UNIT, float_text),
    "--step": (st.floats(min_value=1e-3, max_value=10.0).map(repr), float_text),
    "--trials": (
        st.integers(min_value=1, max_value=MAX_TRIALS).map(str),
        st.sampled_from(["0", "-1", str(-(2 ** 70)), "1.5", "nan"] + _JUNK),
    ),
    "--workers": (
        st.integers(min_value=1, max_value=MAX_WORKERS).map(str),
        st.sampled_from(["0", "-1", str(-(2 ** 70)), "1.5", "inf"] + _JUNK),
    ),
    "--seed": (st.integers(min_value=0, max_value=2 ** 64 - 1).map(str), int_text),
    "--protocol": (st.sampled_from(["ehs-mrc", "hs-sc", "both"]), junk),
    "--metrics": (st.sampled_from(["esc", "op", "ee", "all"]), junk),
}

config_line = st.tuples(
    st.sampled_from(sorted(cli._DEFAULTS) + ["bogus"]),
    st.one_of(st.sampled_from(_EXTREME_FLOATS), float_text, int_text),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
# several lines per run, so holes that need two keys together are searched
config_text = st.lists(config_line, min_size=1, max_size=3).map("\n".join)


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _bound_grid(draw, options):
    # pull --stop in so a finite grid keeps at most MAX_GRID_POINTS points
    variable = {"alpha": "alpha", "d1": "d1"}.get(options.get("--sweep"), "snr_db")
    defaults = cli._SWEEP_DEFAULTS[variable]
    flags = ("--start", "--stop", "--step")
    start, stop, step = [
        _as_float(options[f]) if f in options else d for f, d in zip(flags, defaults)
    ]
    if None in (start, stop, step) or not all(map(math.isfinite, (start, stop, step))):
        return
    if step > 0.0 and stop >= start and (stop - start) / step >= MAX_GRID_POINTS - 1:
        options["--stop"] = repr(start + draw(st.integers(0, MAX_GRID_POINTS - 1)) * step)


@st.composite
def cli_argv(draw):
    """(argv, config text or None or "<missing>", --out target kind)."""
    options = {"--trials": draw(OPTIONS["--trials"][0])}
    for flag, (valid, _) in OPTIONS.items():
        if flag not in options and draw(st.booleans()):
            options[flag] = draw(valid)
    spoiled = draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=2, unique=True))
    for flag in spoiled:
        options[flag] = draw(OPTIONS[flag][1])
    _bound_grid(draw, options)
    argv = [f"{flag}={value}" for flag, value in options.items()]
    if draw(st.booleans()):
        argv.append("--validate")
    if draw(st.integers(0, 49)) == 0:
        argv.append("--help")
    config = draw(st.one_of(st.none(), config_text, st.just("<missing>")))
    out = draw(st.sampled_from([None, "file", "directory"]))
    return argv, config, out


def _run(argv, config, out, workdir):
    if config == "<missing>":
        argv = argv + ["--config", str(workdir / "absent.conf")]
    elif config is not None:
        path = workdir / "run.conf"
        path.write_text(config + "\n", encoding="utf-8")
        argv = argv + ["--config", str(path)]
    target = None
    if out == "file":
        target = workdir / "out.csv"
        argv = argv + ["--out", str(target)]
    elif out == "directory":
        argv = argv + ["--out", str(workdir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    csv = stdout.getvalue()
    if target is not None and target.exists():
        csv = target.read_text(encoding="utf-8")
    return code, csv, stderr.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(cli_argv())
# inputs this test has found: argparse's `--opt=--`, NaN rates, and points
# whose energy efficiency has no finite value
@example((["--trials=5", "--workers=--"], None, None))
@example((["--trials=5", "--stop=0"], "r1 = nan", None))
@example((["--trials=5", "--start=-1e308", "--stop=-1e308", "--protocol=hs-sc"], None, None))
@example((["--trials=5", "--stop=0", "--validate"], "eta = 1e-300", "file"))
def test_cli_answers_every_input_cleanly(case):
    argv, config, out = case
    with tempfile.TemporaryDirectory() as tmp:
        code, csv, err = _run(argv, config, out, Path(tmp))
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and "Warning" not in err, err
    if code == 2:
        assert err.count("error:") == 1, err
    if code == 0:
        cells = {cell.strip().lower() for line in csv.splitlines() for cell in line.split(",")}
        assert not cells & {"nan", "inf", "-inf"}, csv
