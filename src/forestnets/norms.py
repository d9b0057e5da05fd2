"""Measure-weighted norms, inner products and total variation distance."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import config
from .errors import InvalidParams, ShapeMismatch, UnnormalizedMeasure


_TINY = np.finfo(float).tiny


def _as_vec(x: Sequence[float]) -> np.ndarray:
    return np.asarray(x, dtype=float)


def lp_norm(f: Sequence[float], mu: Sequence[float], p: float) -> float:
    """``(sum_x |f(x)|^p mu(x))^(1/p)``; for ``p = inf`` the max of ``|f|``
    over the support of ``mu``.  When the sum leaves the normal float range
    (a large ``p``), it is taken of ``f / max |f|`` instead and the result
    scaled back, so the norm neither overflows nor underflows to 0."""
    f = _as_vec(f)
    mu = _as_vec(mu)
    if f.shape != mu.shape:
        raise ShapeMismatch("f and mu must have the same length")
    check_p(p)
    if p == math.inf:
        support = mu > 0
        if not support.any():
            return 0.0
        return float(np.abs(f[support]).max())
    a = np.abs(f)
    with np.errstate(over="ignore"):
        total = a**p @ mu
    top = float(a.max(initial=0.0))
    if _TINY <= total < math.inf or not 0.0 < top < math.inf:
        return float(total ** (1.0 / p))
    return top * float(((a / top) ** p @ mu) ** (1.0 / p))


def check_p(p: float) -> None:
    """Raise ``InvalidParams`` unless ``p >= 1`` (``inf`` passes, NaN not)."""
    if not p >= 1:
        raise InvalidParams(f"p must be >= 1 or inf, got {p}")


def mu_inner(f: Sequence[float], g: Sequence[float], mu: Sequence[float]) -> float:
    """Weighted inner product ``sum_x f(x) g(x) mu(x)``."""
    f = _as_vec(f)
    g = _as_vec(g)
    mu = _as_vec(mu)
    if not (f.shape == g.shape == mu.shape):
        raise ShapeMismatch("f, g and mu must have the same length")
    return float((f * g) @ mu)


def tv_distance(mu: Sequence[float], nu: Sequence[float]) -> float:
    """Total variation distance between two probability vectors."""
    mu = _as_vec(mu)
    nu = _as_vec(nu)
    if mu.shape != nu.shape:
        raise ShapeMismatch("mu and nu must have the same length")
    for name, v in (("mu", mu), ("nu", nu)):
        if abs(float(v.sum()) - 1.0) > config.ARITHMETIC_TOL * max(1, v.size):
            raise UnnormalizedMeasure(f"{name} sums to {float(v.sum())!r}, expected 1")
    return 0.5 * float(np.abs(mu - nu).sum())


def condition_measure(mu: Sequence[float], subset: Sequence[int]) -> np.ndarray:
    """Restrict ``mu`` to ``subset`` and renormalize: ``mu(. | subset)``."""
    mu = _as_vec(mu)
    idx = np.asarray(subset, dtype=np.int64)
    if idx.size == 0:
        raise InvalidParams("cannot condition a measure on an empty set")
    mass = float(mu[idx].sum())
    if mass <= 0:
        raise InvalidParams("subset carries zero mass")
    return mu[idx] / mass


def holder_conjugate(p: float) -> float:
    """q with 1/p + 1/q = 1; handles p = 1 and p = inf."""
    if p == math.inf:
        return 1.0
    if p == 1:
        return math.inf
    return p / (p - 1.0)
