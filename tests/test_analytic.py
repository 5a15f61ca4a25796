import dataclasses
import math

import numpy as np
import pytest

from ehs_cnoma import analytic, model, specfun
from ehs_cnoma.analytic import Exactness
from ehs_cnoma.protocols import Protocol, thresholds
from oracles import expected_log1p_exponential, stacked

LN2 = math.log(2.0)
FORM_FUNCTIONS = (
    "ergodic_c_x1",
    "ergodic_c_x2",
    "ergodic_c_x3",
    "op_ccu",
    "op_ceu_x1",
    "op_ceu_x3",
    "energy_efficiency",
)


def make_params(**overrides):
    return model.SystemParams(rho=overrides.pop("rho", 10.0 ** 1.5), **overrides)


def setup_point(**overrides):
    params = make_params(**overrides)
    varz = model.variances_from_distances(params)
    return params, varz, thresholds(params)


class TestErgodicCapacities:
    def test_frozen_default_point(self):
        params, varz, _ = setup_point()
        assert analytic.ergodic_c_x1(params, varz) == pytest.approx(
            1.2990601003195719, rel=1e-12
        )
        assert analytic.ergodic_c_x2(params, varz) == pytest.approx(
            1.1136735298841787, rel=1e-12
        )
        assert analytic.ergodic_c_x3(params, varz) == pytest.approx(
            2.254895816488211, rel=1e-12
        )

    def test_exact_forms_match_quadrature(self):
        for snr_db in (5.0, 15.0, 25.0):
            params, varz, _ = setup_point(rho=10.0 ** (snr_db / 10.0))
            ref_x1 = params.alpha / LN2 * expected_log1p_exponential(
                varz.lambda_ceu * params.rho * params.p_total
            )
            ref_x2 = (1.0 - params.alpha) / 2.0 / LN2 * expected_log1p_exponential(
                varz.lambda_ccu * params.rho * params.p_n
            )
            assert analytic.ergodic_c_x1(params, varz) == pytest.approx(ref_x1, rel=1e-8)
            assert analytic.ergodic_c_x2(params, varz) == pytest.approx(ref_x2, rel=1e-8)

    def test_x3_combining_model_terms(self):
        params, varz, _ = setup_point()
        coef = 2.0 * params.alpha / (1.0 - params.alpha) + params.delta
        r = params.eta * params.rho * varz.lambda_ceu * coef
        z = params.p_n / params.p_f
        s = varz.lambda_relay
        expected = (
            (1.0 - params.alpha)
            / 2.0
            / LN2
            * (specfun.neg_ei_exp(r) * (1.0 + z) + specfun.neg_ei_exp(s))
        )
        assert analytic.ergodic_c_x3(params, varz) == pytest.approx(expected, rel=1e-14)

    def test_prelog_scaling_in_alpha(self):
        # the SNR scales of x1 and x2 do not involve alpha, so the values
        # scale exactly with their prelog factors
        p3, varz, _ = setup_point(alpha=0.3)
        p6 = dataclasses.replace(p3, alpha=0.6)
        assert analytic.ergodic_c_x1(p6, varz) == pytest.approx(
            2.0 * analytic.ergodic_c_x1(p3, varz), rel=1e-14
        )
        assert analytic.ergodic_c_x2(p6, varz) == pytest.approx(
            (0.4 / 0.7) * analytic.ergodic_c_x2(p3, varz), rel=1e-14
        )

    def test_zero_rho_collapses_exact_terms(self):
        params, varz, _ = setup_point(rho=0.0)
        assert analytic.ergodic_c_x1(params, varz) == 0.0
        assert analytic.ergodic_c_x2(params, varz) == 0.0
        # the combining model keeps its non-scaled direct term; kept as
        # defined, which is why this form carries the approximate tag
        expected = 0.35 / LN2 * specfun.neg_ei_exp(4.0)
        assert analytic.ergodic_c_x3(params, varz) == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_rho(self):
        values = []
        for snr_db in np.linspace(0.0, 30.0, 7):
            params, varz, _ = setup_point(rho=10.0 ** (snr_db / 10.0))
            values.append(analytic.ergodic_c_x1(params, varz))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sum_composition(self):
        params, varz, _ = setup_point()
        x1 = analytic.ergodic_c_x1(params, varz)
        x2 = analytic.ergodic_c_x2(params, varz)
        x3 = analytic.ergodic_c_x3(params, varz)
        [forms] = analytic.closed_forms(params, varz, (Protocol.EHS_MRC,))
        esc = forms["esc_total"].value
        assert esc == pytest.approx(4.6676294466919614, rel=1e-12)
        assert esc == (x2 + x3) + x1


class TestOutageForms:
    def test_frozen_default_point(self):
        params, varz, thr = setup_point()
        assert analytic.op_ceu_x1(params, varz, thr) == pytest.approx(
            0.17922741066365955, rel=1e-12
        )
        assert analytic.op_ccu(params, varz, thr) == pytest.approx(
            0.90387480521226, rel=1e-12
        )
        assert analytic.op_ceu_x3(params, varz, thr) == pytest.approx(
            0.18978132431845704, rel=1e-12
        )

    def test_x1_closed_form_is_exponential_tail(self):
        params, varz, thr = setup_point()
        expected = 1.0 - math.exp(-thr.psi_r1 / (params.rho * varz.lambda_ceu))
        assert analytic.op_ceu_x1(params, varz, thr) == pytest.approx(expected, rel=1e-14)

    def test_near_user_first_term_has_no_complement(self):
        # the SIC-success factor enters as A*exp(...), not A*(1-exp(...));
        # consequence: the form saturates at A for both rho -> 0 and
        # rho -> inf instead of vanishing. Kept as defined.
        params, varz, thr = setup_point()
        a = params.p_f / (params.p_f + params.p_n)
        term1 = a * math.exp(-thr.psi_r3 / (params.rho * varz.lambda_ccu * params.p_f))
        assert term1 == pytest.approx(0.8519527747596873, rel=1e-12)
        lo, varz_lo, thr_lo = setup_point(rho=0.0)
        assert analytic.op_ccu(lo, varz_lo, thr_lo) == pytest.approx(a, abs=1e-15)
        hi, varz_hi, thr_hi = setup_point(rho=1e12)
        assert analytic.op_ccu(hi, varz_hi, thr_hi) == pytest.approx(a, rel=1e-9)

    def test_x1_certain_outage_without_power(self):
        params, varz, thr = setup_point(rho=0.0)
        assert analytic.op_ceu_x1(params, varz, thr) == 1.0

    def test_x3_limits(self):
        hi, varz, thr = setup_point(rho=1e12)
        assert analytic.op_ceu_x3(hi, varz, thr) < 1e-9
        no_harvest, varz2, thr2 = setup_point(eta=1e-15)
        assert analytic.op_ceu_x3(no_harvest, varz2, thr2) == pytest.approx(1.0, abs=1e-12)

    def test_threshold_saturation_in_r2(self):
        # an unreachable x2 rate drives the second decode event certain
        params, varz, thr = setup_point(r2=40.0)
        a = params.p_f / (params.p_f + params.p_n)
        term1 = a * math.exp(-thr.psi_r3 / (params.rho * varz.lambda_ccu * params.p_f))
        expected = term1 + a - term1 * a
        assert analytic.op_ccu(params, varz, thr) == pytest.approx(expected, rel=1e-12)

    def test_x1_monotone_decreasing_in_rho(self):
        values = []
        for snr_db in np.linspace(0.0, 30.0, 7):
            params, varz, thr = setup_point(rho=10.0 ** (snr_db / 10.0))
            values.append(analytic.op_ceu_x1(params, varz, thr))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_probability_bounds_over_random_parameters(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            rho = float(10.0 ** rng.uniform(-1.0, 3.0))
            p_n = float(rng.uniform(0.05, 0.45))
            d1 = float(rng.uniform(0.1, 0.85))
            params = model.SystemParams(
                rho=rho,
                alpha=float(rng.uniform(0.05, 0.9)),
                delta=float(rng.uniform(0.05, 0.9)),
                eta=float(rng.uniform(0.05, 1.0)),
                p_n=p_n,
                p_f=1.0 - p_n,
                d1=d1,
                d2=float(rng.uniform(d1 + 0.05, 2.0)),
                r1=float(rng.uniform(0.2, 2.0)),
                r2=float(rng.uniform(0.2, 2.0)),
                r3=float(rng.uniform(0.2, 2.0)),
            )
            varz = model.variances_from_distances(params)
            thr = thresholds(params)
            for value in (
                analytic.op_ceu_x1(params, varz, thr),
                analytic.op_ccu(params, varz, thr),
                analytic.op_ceu_x3(params, varz, thr),
            ):
                assert 0.0 <= value <= 1.0
            assert analytic.ergodic_c_x1(params, varz) >= 0.0
            assert analytic.mean_relay_power(params, varz) > 0.0


class TestEnergyEfficiency:
    def test_mean_relay_power_frozen(self):
        params, varz, _ = setup_point()
        assert analytic.mean_relay_power(params, varz) == pytest.approx(
            102.4577961894555, rel=1e-12
        )

    def test_mean_relay_power_formula(self):
        params, varz, _ = setup_point()
        coef = 2.0 * params.alpha / (1.0 - params.alpha) + params.delta
        expected = params.eta * params.rho * varz.lambda_ccu * coef
        assert analytic.mean_relay_power(params, varz) == pytest.approx(expected, rel=1e-15)
        halved = dataclasses.replace(params, eta=0.35)
        assert analytic.mean_relay_power(halved, varz) == pytest.approx(
            expected / 2.0, rel=1e-14
        )

    def test_values(self):
        params, varz, _ = setup_point()
        [forms] = analytic.closed_forms(params, varz, (Protocol.EHS_MRC,))
        esc = forms["esc_total"].value
        assert analytic.energy_efficiency(params, varz, esc) == pytest.approx(
            0.04555660594203112, rel=1e-12
        )
        assert analytic.energy_efficiency(params, varz, 2.4) == pytest.approx(
            0.023424278964210215, rel=1e-12
        )
        assert analytic.energy_efficiency(params, varz, 0.0) == 0.0

    def test_errors(self):
        params, varz, _ = setup_point()
        with pytest.raises(ValueError):
            analytic.energy_efficiency(params, varz, -0.5)
        zero, varz0, _ = setup_point(rho=0.0)
        with pytest.raises(ValueError):
            analytic.energy_efficiency(zero, varz0, 1.0)


class TestExactnessTags:
    def test_tags(self):
        # the table alone tags each form, in the order --validate prints rows
        params, varz, _ = setup_point()
        exact, approx = Exactness.EXACT, Exactness.APPROXIMATE
        expected = {
            Protocol.EHS_MRC: [
                ("c_x1", exact),
                ("c_x2", exact),
                ("c_x3", approx),
                ("esc_total", approx),
                ("op_x1", exact),
                ("op_x2_ccu", approx),
                ("op_x3_ceu", approx),
                ("ee", approx),
            ],
            Protocol.HS_SC: [("c_x2", exact), ("op_x2_ccu", approx)],
        }
        for protocol, tags in expected.items():
            [forms] = analytic.closed_forms(params, varz, (protocol,))
            assert [(metric, report.exactness) for metric, report in forms.items()] == tags


class TestClosedForms:
    @pytest.mark.parametrize(
        "protocol, order, specfun_calls",
        [
            (
                Protocol.EHS_MRC,
                [
                    "ergodic_c_x2",
                    "ergodic_c_x3",
                    "ergodic_c_x1",
                    "op_ceu_x1",
                    "op_ccu",
                    "op_ceu_x3",
                    "energy_efficiency",
                ],
                4,
            ),
            (Protocol.HS_SC, ["ergodic_c_x2", "op_ccu"], 1),
        ],
        ids=["ehs-mrc", "hs-sc"],
    )
    def test_each_form_runs_once(self, monkeypatch, protocol, order, specfun_calls):
        # each printed form runs once, in an order that keeps the first error
        # an input raises; the sum is built from the three capacities
        calls = []

        def counted(name):
            fn = getattr(analytic, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(analytic, name, wrapper)

        for name in FORM_FUNCTIONS + ("neg_ei_exp",):
            counted(name)
        params, varz, _ = setup_point()
        analytic.closed_forms(params, varz, (protocol,))
        assert [name for name in calls if name != "neg_ei_exp"] == order
        assert calls.count("neg_ei_exp") == specfun_calls

    @pytest.mark.parametrize(
        "order", [list(Protocol), list(reversed(Protocol))], ids=["ehs-mrc-first", "hs-sc-first"]
    )
    def test_one_call_for_both_protocols_runs_each_form_once(self, monkeypatch, order):
        # in either order, one call derives the thresholds once and runs each
        # form once, in the enhanced order; the baseline's table holds the
        # enhanced table's near-user reports, the same objects
        calls = []

        def counted(name):
            fn = getattr(analytic, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(analytic, name, wrapper)

        for name in FORM_FUNCTIONS + ("thresholds",):
            counted(name)
        params, varz, _ = setup_point()
        tables = dict(zip(order, analytic.closed_forms(params, varz, order)))
        assert calls == [
            "thresholds",
            "ergodic_c_x2",
            "ergodic_c_x3",
            "ergodic_c_x1",
            "op_ceu_x1",
            "op_ccu",
            "op_ceu_x3",
            "energy_efficiency",
        ]
        enhanced, baseline = tables[Protocol.EHS_MRC], tables[Protocol.HS_SC]
        assert list(baseline) == ["c_x2", "op_x2_ccu"]
        assert baseline["c_x2"] is enhanced["c_x2"]
        assert baseline["op_x2_ccu"] is enhanced["op_x2_ccu"]


def db_grid(snr_dbs, **overrides):
    # rho from dB as the command line derives it
    return [{"rho": 10.0 ** (snr_db / 10.0), **overrides} for snr_db in snr_dbs]


# grids over SNR, alpha and d1, and points at snr_db = -3200 where products
# of rho underflow to 0: r == 0 in ergodic_c_x3, a zero scale in the
# capacities and den == 0 in the outages (the d1 grid with v = 1050, d2 = 2)
ARRAY_GRIDS = {
    "snr": db_grid(np.arange(-10.0, 40.5, 2.5)),
    "alpha": db_grid([15.0], alpha=0.05) + [
        {"rho": 10.0 ** 1.5, "alpha": alpha} for alpha in np.arange(0.1, 0.95, 0.05)
    ],
    "d1": [{"rho": 10.0 ** 1.5, "d1": d1} for d1 in np.arange(0.01, 0.99, 0.02)],
    "snr-3200": db_grid([-3200.0]) + [
        {"rho": 10.0 ** -320.0, "v": 1050.0, "d2": 2.0, "d1": d1} for d1 in (1.0, 1.1, 1.2)
    ],
}


class TestArrayForms:
    @pytest.mark.parametrize("grid", ARRAY_GRIDS)
    def test_arrays_over_points_match_each_point_bit_for_bit(self, grid):
        params = [model.SystemParams(**kwargs) for kwargs in ARRAY_GRIDS[grid]]
        varz = [model.variances_from_distances(p) for p in params]
        columns = stacked(list(zip(params, varz)))
        if grid == "snr-3200":
            assert any(p.rho * v.lambda_ceu == 0.0 for p, v in zip(params, varz))

        def same_bits(array, values):
            # a form that reads no array gives one float
            array = np.broadcast_to(array, len(values))
            assert array.tobytes() == np.array(values, dtype=np.float64).tobytes()

        for name in ("ergodic_c_x1", "ergodic_c_x2", "ergodic_c_x3", "mean_relay_power"):
            form = getattr(analytic, name)
            same_bits(form(*columns), [form(p, v) for p, v in zip(params, varz)])
        for name in ("op_ccu", "op_ceu_x1", "op_ceu_x3"):
            form = getattr(analytic, name)
            expected = [form(p, v, thresholds(p)) for p, v in zip(params, varz)]
            same_bits(form(*columns, thresholds(columns[0])), expected)
        for order in (list(Protocol), list(reversed(Protocol)), [Protocol.HS_SC]):
            tables, errors = [], []
            for p, v in zip(params, varz):
                try:
                    tables.append(analytic.closed_forms(p, v, order))
                except ValueError as exc:
                    errors.append(exc)
            if errors:
                # a point with no value fails the whole array pass
                with pytest.raises(ValueError):
                    analytic.closed_forms(*columns, order)
                continue
            for j, forms in enumerate(analytic.closed_forms(*columns, order)):
                assert list(forms) == list(tables[0][j])
                for metric, form in forms.items():
                    assert form.exactness == tables[0][j][metric].exactness
                    same_bits(form.value, [point[j][metric].value for point in tables])
