"""System constants, distance to variance mapping, Rayleigh gain sampler."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from . import _philox


@dataclass(frozen=True)
class SystemParams:
    """Scalar constants of the downlink.

    rho is the linear transmit SNR (the CLI converts dB). alpha is the
    time-switching fraction, delta the power-splitting fraction, eta the
    energy conversion efficiency. p_n and p_f are the power coefficients of
    the near-user and far-user symbols and must sum to p_total. d1 and d2
    are normalized distances from the base station to the near and far
    user, v is the path loss exponent, r1..r3 are target rates in
    bits/s/Hz.
    """

    rho: float
    alpha: float = 0.3
    delta: float = 0.3
    eta: float = 0.7
    p_n: float = 0.1
    p_f: float = 0.9
    p_total: float = 1.0
    d1: float = 0.5
    d2: float = 1.0
    v: float = 2.0
    r1: float = 1.0
    r2: float = 1.0
    r3: float = 1.0

    def __post_init__(self):
        for name in _PARAM_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rho < 0.0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if not 0.0 < self.p_n < self.p_f:
            raise ValueError(f"need 0 < p_n < p_f, got p_n={self.p_n}, p_f={self.p_f}")
        if not math.isclose(self.p_n + self.p_f, self.p_total, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError(
                f"p_n + p_f must equal p_total, got {self.p_n + self.p_f} vs p_total={self.p_total}"
            )
        for name in ("alpha", "delta"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if not 0.0 < self.d1 < self.d2:
            raise ValueError(f"need 0 < d1 < d2, got d1={self.d1}, d2={self.d2}")
        for name in ("r1", "r2", "r3"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.v < 0.0:
            raise ValueError(f"v must be >= 0, got {self.v}")


# read once, not per instance
_PARAM_FIELDS = tuple(field.name for field in fields(SystemParams))


@dataclass(frozen=True)
class ChannelVariances:
    """Mean squared channel gains of the three links."""

    lambda_ccu: float
    lambda_ceu: float
    lambda_relay: float

    def __post_init__(self):
        for name in ("lambda_ccu", "lambda_ceu", "lambda_relay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def variances_from_distances(params: SystemParams) -> ChannelVariances:
    """Map distances to gain variances: d^(-v), with the relay spanning d2 - d1.

    Collinear geometry, so the far-user link has unit variance at d2 = 1.
    SystemParams guarantees 0 < d1 < d2.
    """
    try:
        return ChannelVariances(**_path_losses(params))
    except (OverflowError, ValueError):
        raise ValueError(
            f"path loss d^(-v) leaves (0, inf) at d1={params.d1}, d2={params.d2}, v={params.v}"
        ) from None


def _path_losses(params: SystemParams) -> dict[str, float]:
    d1, d2, v = params.d1, params.d2, params.v
    return {"lambda_ccu": d1 ** -v, "lambda_ceu": d2 ** -v, "lambda_relay": (d2 - d1) ** -v}


def grid_points(params: SystemParams, field: str, values) -> tuple[list, list]:
    """(params, variances) with field set to each value, each equal to the constructor's, unchecked.

    For the points of a grid whose checks passed (see cli.run_sweep).
    """
    points = [_unchecked(SystemParams, {**vars(params), field: value}) for value in values]
    if field in ("d1", "d2", "v"):
        return points, [_unchecked(ChannelVariances, _path_losses(point)) for point in points]
    return points, [variances_from_distances(params)] * len(points)


def _unchecked(cls, values: dict):
    instance = object.__new__(cls)
    vars(instance).update(values)
    return instance


def field_table(objects) -> np.ndarray:
    """The fields of SystemParams or ChannelVariances objects: a (fields, points) float64 table."""
    names = [field.name for field in fields(objects[0])]
    return np.array(list(map(attrgetter(*names), objects)), dtype=np.float64).T.copy()


def columns(cls, table: np.ndarray) -> SimpleNamespace:
    """The fields of cls from a field_table, or any view of its points: a float where every
    point holds the bits, else the field's row of the view, shaped as the points are.

    Only bits count as shared, so 0.0 and -0.0 stay apart.
    """
    bits = table.view(np.int64)
    shared = (bits == bits[:, :1]).all(axis=1).ravel().tolist()
    first = table[:, :1].ravel().tolist()
    rows = zip((field.name for field in fields(cls)), first, shared, table)
    return SimpleNamespace(**{name: value if same else row for name, value, same, row in rows})


def sample_gains(seed: int, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Unit-mean exponential draws for trials [start, stop), one counter block per trial.

    Lane-major, shape (3, n): lane 0 feeds the near-user gain, lane 1 the
    far-user gain, lane 2 the relay gain. The uniforms are written into
    `out` (a new array if None), turned into -log1p(-u) in place and
    returned, so a chunk's draws land in its workspace with no copy. A
    point's gain is its variance times the draw, which equals the inverse
    CDF -lambda * log1p(-u) bit for bit, so the draws of a trial serve
    every point and stay a pure function of (seed, trial index).
    """
    out = _philox.uniform_lanes(seed, start, stop, out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    return np.negative(out, out=out)
