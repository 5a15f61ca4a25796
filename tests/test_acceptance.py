"""Acceptance gate: every shipped guarantee as one test with a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The near-user distance trend check asserts the documented expectation that
both protocols' sum capacity fall monotonically across the whole distance
grid; the simulated physics disagrees at the far end of the grid (the relay
hop shortens as d1 grows), so that single check fails honestly rather than
being weakened to pass.
"""

import math
import time

import numpy as np
import pytest

from ehs_cnoma import analytic, cli, model, montecarlo, specfun
from ehs_cnoma.montecarlo import EstimatorConfig
from ehs_cnoma.protocols import Protocol, thresholds
from oracles import expected_log1p_exponential

SEED = 42
SNR_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
D1_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 9))


def _verdict(num, ok, desc):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num}: {desc}"


def params_at(**overrides):
    return model.SystemParams(rho=overrides.pop("rho", 10.0 ** 1.5), **overrides)


def estimates_at(params, protocol, trials=100_000):
    varz = model.variances_from_distances(params)
    cfg = EstimatorConfig(trials=trials, seed=SEED)
    [est] = montecarlo.estimate_metrics([(params, varz)], (protocol,), cfg)
    return est


@pytest.fixture(scope="module")
def snr_sweep():
    data = {}
    for protocol in Protocol:
        data[protocol] = [
            estimates_at(params_at(rho=10.0 ** (db / 10.0)), protocol) for db in SNR_GRID_DB
        ]
    return data


@pytest.fixture(scope="module")
def d1_sweep():
    data = {}
    for protocol in Protocol:
        data[protocol] = [estimates_at(params_at(d1=d1), protocol) for d1 in D1_GRID]
    return data


def test_criterion_01_special_functions_vs_oracles():
    start = time.perf_counter()
    worst_mean = 0.0
    for u in np.logspace(-4, 4, 17):
        ref = expected_log1p_exponential(float(u))
        worst_mean = max(worst_mean, abs(specfun.neg_ei_exp(float(u)) - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    ok = worst_mean <= 1e-8 and elapsed < 1.0
    _verdict(1, ok, f"neg_ei_exp rel {worst_mean:.2e} (<=1e-8), {elapsed:.2f}s (<1s)")


def test_criterion_02_exact_forms_within_three_sigma():
    start = time.perf_counter()
    worst_z = 0.0
    for db in SNR_GRID_DB:
        params = params_at(rho=10.0 ** (db / 10.0))
        varz = model.variances_from_distances(params)
        thr = thresholds(params)
        est = estimates_at(params, Protocol.EHS_MRC, trials=1_000_000)
        pairs = (
            (analytic.ergodic_c_x1(params, varz), est["c_x1"]),
            (analytic.ergodic_c_x2(params, varz), est["c_x2"]),
            (analytic.op_ceu_x1(params, varz, thr), est["op_x1"]),
        )
        for ana, sim in pairs:
            worst_z = max(worst_z, abs(sim.mean - ana) / sim.std_error)
    anchor = analytic.op_ceu_x1(
        params_at(), model.variances_from_distances(params_at()), thresholds(params_at())
    )
    elapsed = time.perf_counter() - start
    ok = worst_z <= 3.0 and abs(anchor - 0.17922) < 1e-4 and elapsed < 60.0
    _verdict(
        2,
        ok,
        f"worst |z| {worst_z:.2f} over {len(SNR_GRID_DB)} SNR points at 1e6 trials "
        f"(<=3), op_x1 anchor {anchor:.6f} (~0.17922), {elapsed:.1f}s (<60s)",
    )


def test_criterion_03_sum_capacity_vs_snr(snr_sweep):
    ehs = [e["esc_total"].mean for e in snr_sweep[Protocol.EHS_MRC]]
    hs = [e["esc_total"].mean for e in snr_sweep[Protocol.HS_SC]]
    dominance = all(a > b for a, b in zip(ehs, hs))
    rising = all(b > a for a, b in zip(ehs, ehs[1:])) and all(
        b > a for a, b in zip(hs, hs[1:])
    )
    _verdict(3, dominance and rising, "enhanced > baseline at every SNR, both increasing")


def test_criterion_04_alpha_growth_then_flattening():
    esc = {
        a: estimates_at(params_at(alpha=a), Protocol.EHS_MRC)["esc_total"].mean
        for a in (0.30, 0.35, 0.70, 0.75)
    }
    d_low = esc[0.35] - esc[0.30]
    d_high = esc[0.75] - esc[0.70]
    ok = d_high < 0.25 * d_low
    _verdict(
        4,
        ok,
        f"sum-capacity slope in alpha flattens: {d_high:.4f} < 0.25*{d_low:.4f}",
    )


def test_criterion_05_sum_capacity_vs_distance(d1_sweep):
    ehs = [e["esc_total"].mean for e in d1_sweep[Protocol.EHS_MRC]]
    hs = [e["esc_total"].mean for e in d1_sweep[Protocol.HS_SC]]
    dominance = all(a > b for a, b in zip(ehs, hs))
    falling = all(b < a for a, b in zip(ehs, ehs[1:])) and all(
        b < a for a, b in zip(hs, hs[1:])
    )
    detail = " ".join(f"{d:.1f}:{v:.3f}" for d, v in zip(D1_GRID, ehs))
    _verdict(
        5,
        dominance and falling,
        f"enhanced > baseline at every d1 and both decreasing; enhanced series {detail}",
    )


def test_criterion_06_outage_vs_snr(snr_sweep):
    series = {}
    for protocol in Protocol:
        for metric in ("op_x1", "op_x2_ccu", "op_x3_ceu"):
            series[(protocol, metric)] = [e[metric].mean for e in snr_sweep[protocol]]
    non_increasing = all(
        all(b <= a for a, b in zip(vals, vals[1:])) for vals in series.values()
    )
    mrc_helps = all(
        a <= b
        for a, b in zip(
            series[(Protocol.EHS_MRC, "op_x3_ceu")], series[(Protocol.HS_SC, "op_x3_ceu")]
        )
    )
    shared_symbol_identical = series[(Protocol.EHS_MRC, "op_x2_ccu")] == series[
        (Protocol.HS_SC, "op_x2_ccu")
    ]
    _verdict(
        6,
        non_increasing and mrc_helps and shared_symbol_identical,
        "all outage series non-increasing, combining never hurts x3, x2 bit-identical",
    )


def test_criterion_07_outage_vs_alpha():
    op_x2, op_x3 = [], []
    for a in ALPHA_GRID:
        est = estimates_at(params_at(alpha=a), Protocol.EHS_MRC)
        op_x2.append(est["op_x2_ccu"].mean)
        op_x3.append(est["op_x3_ceu"].mean)
    ok = all(b >= a for a, b in zip(op_x2, op_x2[1:])) and all(
        b >= a for a, b in zip(op_x3, op_x3[1:])
    )
    _verdict(7, ok, "near- and far-user x3/x2 outage non-decreasing in alpha")


def test_criterion_08_outage_vs_distance(d1_sweep):
    ehs = d1_sweep[Protocol.EHS_MRC]
    op_x2 = [e["op_x2_ccu"].mean for e in ehs]
    op_x3 = [e["op_x3_ceu"].mean for e in ehs]
    op_x1 = [e["op_x1"].mean for e in ehs]
    increasing = all(b > a for a, b in zip(op_x2, op_x2[1:])) and all(
        b > a for a, b in zip(op_x3, op_x3[1:])
    )
    constant = len(set(op_x1)) == 1
    _verdict(
        8,
        increasing and constant,
        f"x2/x3 outage increase with d1, x1 outage exactly constant at {op_x1[0]:.6f}",
    )


def test_criterion_09_energy_efficiency(snr_sweep):
    ehs = [e["ee"].mean for e in snr_sweep[Protocol.EHS_MRC]]
    hs = [e["ee"].mean for e in snr_sweep[Protocol.HS_SC]]
    falling = all(b < a for a, b in zip(ehs, ehs[1:])) and all(
        b < a for a, b in zip(hs, hs[1:])
    )
    dominance = all(a > b for a, b in zip(ehs, hs))
    gap_5db = ehs[1] - hs[1]
    gap_25db = ehs[5] - hs[5]
    _verdict(
        9,
        falling and dominance and gap_5db > gap_25db,
        f"EE decreasing, enhanced above baseline, gap 5dB {gap_5db:.4f} > 25dB {gap_25db:.4f}",
    )


def test_criterion_10_approximations_reported_not_asserted():
    params = params_at()
    varz = model.variances_from_distances(params)
    cfg = EstimatorConfig(trials=100_000, seed=SEED)
    [est] = montecarlo.estimate_metrics([(params, varz)], (Protocol.EHS_MRC,), cfg)
    report = montecarlo.compare_with_analytic(params, varz, Protocol.EHS_MRC, est)
    rows = {row.metric: row for row in report.rows}
    approx_ok = all(
        rows[m].status == "APPROX"
        and math.isfinite(rows[m].analytic)
        and math.isfinite(rows[m].simulated)
        for m in ("c_x3", "op_x2_ccu", "op_x3_ceu")
    )
    x3 = rows["op_x3_ceu"]
    print(
        f"    far-user x3 outage at 15 dB: closed form {x3.analytic:.6f} vs "
        f"simulated {x3.simulated:.6f} (+-{x3.std_error:.6f})"
    )
    _verdict(
        10,
        approx_ok and not report.failed,
        "approximate forms shown beside simulation and never marked FAIL",
    )


def test_criterion_11_deterministic_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    start = time.perf_counter()
    assert cli.main(["--out", str(out_a)]) == 0
    elapsed = time.perf_counter() - start
    assert cli.main(["--out", str(out_b)]) == 0
    assert cli.main(["--workers", "3", "--out", str(out_c)]) == 0
    same = out_a.read_bytes() == out_b.read_bytes() == out_c.read_bytes()
    ok = same and elapsed <= 10.0
    _verdict(
        11,
        ok,
        f"default sweep byte-identical across reruns and worker counts, {elapsed:.1f}s (<=10s)",
    )
