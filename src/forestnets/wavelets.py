"""Multiresolution analysis of signals on networks.

One analysis step splits a signal into a smoothed part carried by a kept
vertex set and a detail part carried by the dropped vertices:

* approximation: run the walk killed at rate ``q'`` and record the
  expected signal value at the stopping position, read on kept vertices;
* detail: the difference between that smoothing and the signal itself,
  read on dropped vertices.

The step is exactly invertible.  Iterating it on successive Schur
reductions gives a pyramid: detail vectors at every level plus one apex
vector on the final coarse network.  This module builds pyramids with
forest-sampled kept sets, reconstructs exactly, compresses by discarding
small detail coefficients, and evaluates the stability bounds that
control each operator of the transform.

One type is the analysis step: :class:`PyramidLevel`.  Pyramid levels, the
levels :mod:`fileio` reads from an archive and the one-step functions
(:func:`analyze_level`, :func:`reconstruct_level`, ...) are all made by its
constructor, which checks the kept set and ``q'`` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import coarsegrain as cg
from . import config, oracle, sampler
from .errors import DegenerateBasis, InvalidParams, NumericalError
from .network import Network
from .norms import check_p, condition_measure, holder_conjugate, lp_norm

_MAX_ROOT_RETRIES = 64
_SEED_MASK = (1 << 64) - 1


def _as_signal(values: Sequence[float], n: int) -> np.ndarray:
    f = np.asarray(values, dtype=float)
    if f.shape != (n,):
        raise InvalidParams(f"signal must have shape ({n},), got {f.shape}")
    if not np.isfinite(f).all():
        raise InvalidParams("signal values must be finite")
    return f


# ---------------------------------------------------------------------------
# one level


@dataclass
class PyramidLevel:
    """One analysis step: the reduction of the level's network (level 0 is
    the base) onto its kept set, which the constructor checks is a proper
    nonempty subset, and the smoothing rate ``q_prime``, which it checks
    too.  The reduction factors ``-L_DD`` once and builds the reduced
    network from the Schur complement and computes the return speeds once
    each (see :class:`coarsegrain.ReducedNetwork`).  No method forms the killed
    kernel ``K_{q'}``: :meth:`reconstruct` solves with the kept LU of
    ``-L_DD``, and :meth:`analyze` and :meth:`detail_size_check` each
    factor ``q' Id - L`` (:func:`oracle.killed_lu`) for their right-hand
    sides and drop the factors.  Each solve is an :class:`oracle.CheckedLU`
    of the matrix :func:`oracle.block` builds, sparse (SuperLU) or dense by
    the density rule of :func:`network.sparse_pays`, and the products with
    ``L`` and ``Lbar`` read :attr:`Network.generator`, which the reduced
    network shares with the next level.  The same rule decides what a
    level keeps: on a sparse level no dense ``L`` is formed, the reduced
    generator is a sparse matrix when the rule picks it for its own
    density, and the factors of ``-L_DD`` are SuperLU's; a dense level
    forms ``L``, keeps a dense reduced generator and the LU of a dense copy
    of the block.

    Position ``i`` of the next level corresponds to ``keep[i]`` here.  In
    a pyramid, ``detail`` holds the level's detail coefficients and
    ``q_tuning`` the killing rate its kept set was sampled at, if it was.
    ``stored_next`` is the network the next level runs on when that is not
    the exact reduction's: a sparsification of it, or, read from an
    archive, a stored network that may be either.  The level's measure
    ``mu`` (the base measure conditioned down to this level) is its
    network's own.
    """

    reduction: cg.ReducedNetwork
    q_prime: float
    detail: np.ndarray | None = None
    stored_next: Network | None = None
    q_tuning: float | None = None

    def __post_init__(self) -> None:
        if self.keep.size >= self.n:
            raise InvalidParams("kept set must be a proper nonempty subset")
        cg.check_q_prime(self.q_prime)

    @classmethod
    def of(cls, net: Network, keep: Sequence[int], q_prime: float) -> PyramidLevel:
        """The analysis step of ``net`` onto ``keep`` at rate ``q'``."""
        return cls(cg.ReducedNetwork(net, keep), q_prime)

    @property
    def network(self) -> Network:
        return self.reduction.parent

    @property
    def keep(self) -> np.ndarray:
        return self.reduction.kept

    @property
    def dropped(self) -> np.ndarray:
        return self.reduction.dropped

    @property
    def mu(self) -> np.ndarray:
        return self.network.mu

    @property
    def n(self) -> int:
        return self.network.n

    @property
    def next_network(self) -> Network:
        """The network the next level runs on."""
        if self.stored_next is None:
            return self.reduction.network
        return self.stored_next

    @property
    def sparsified(self) -> bool:
        return self.stored_next is not None

    def analyze(self, values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """(approximation on kept, detail on dropped) of a signal, from
        ``K_{q'} f``: one solve of ``q' Id - L``."""
        f = _as_signal(values, self.n)
        qp = self.q_prime
        smooth = qp * oracle.killed_lu(self.network, qp).solve(f)
        return smooth[self.keep], (smooth - f)[self.dropped]

    def reconstruct(
        self, approx: Sequence[float], detail: Sequence[float]
    ) -> np.ndarray:
        """Exact inverse of :meth:`analyze` (see :func:`reconstruct_level`);
        ``Lbar`` is the reduced network's generator, which the next level
        analyses with, and both solves with ``-L_DD`` are one."""
        k, d, qp = self.keep, self.dropped, self.q_prime
        fb = _as_signal(approx, k.size)
        fd = _as_signal(detail, d.size)
        L, n = self.network.generator, self.n
        # the off-diagonal blocks of L act through zero-padded vectors,
        # which reads L in place instead of copying a block out of it
        padded = np.zeros(n)
        padded[k] = fb
        # one solve with -L_DD for the detail and the harmonic extension
        x = self.reduction.solve_dropped(np.column_stack([fd, (L @ padded)[d]]))
        inv_detail, harmonic = x[:, 0], x[:, 1]
        padded = np.zeros(n)
        padded[d] = inv_detail
        out = np.empty(n)
        out[k] = fb - (self.reduction.network.generator @ fb) / qp + (L @ padded)[k]
        out[d] = harmonic - fd - qp * inv_detail
        return out

    def approx_factor(self, p: float) -> float:
        a = 1.0 + 2.0 * self.reduction.w_max / self.q_prime
        if p == math.inf:
            return a
        return (a**p + self.network.w_max / self.reduction.speeds[0]) ** (1.0 / p)

    def detail_factor(self, p: float) -> float:
        beta, gamma = self.reduction.speeds
        w_over_beta = self.network.w_max / beta
        b = 1.0 + self.q_prime / gamma if math.isfinite(gamma) else 1.0
        if p == math.inf:
            return max(w_over_beta, b)
        pstar = holder_conjugate(p)
        lead = w_over_beta ** (p / pstar)
        return (lead + b**p) ** (1.0 / p)

    def approx_check(self, coarse: Sequence[float], p: float) -> tuple[float, float]:
        """(measured, bound) for lifting a coarse signal back to the level:
        the conditioned p-norm of the lifted signal, against the
        approximation-operator constant times the kept-mass correction
        times the coarse norm."""
        fb = _as_signal(coarse, self.keep.size)
        lifted = self.reconstruct(fb, np.zeros(self.dropped.size))
        return self._lift_check(lifted, fb, self.keep, self.approx_factor(p), p)

    def detail_check(self, detail: Sequence[float], p: float) -> tuple[float, float]:
        """(measured, bound) for lifting a detail vector back to the level."""
        fd = _as_signal(detail, self.dropped.size)
        lifted = self.reconstruct(np.zeros(self.keep.size), fd)
        return self._lift_check(lifted, fd, self.dropped, self.detail_factor(p), p)

    def detail_size_check(
        self, values: Sequence[float], p: float
    ) -> tuple[float, float]:
        """(measured, bound) for the size of a signal's detail coefficients
        (see :func:`detail_size_check`), from one solve of ``q' Id - L``
        for ``f`` and ``1_D``."""
        net, d, qp = self.network, self.dropped, self.q_prime
        f = _as_signal(values, net.n)
        rhs = np.column_stack([f, np.isin(np.arange(net.n), d)])
        G = oracle.killed_lu(net, qp).solve(rhs)
        Kf, K1d = qp * G[:, 0], qp * G[:, 1]
        fd = (Kf - f)[d]
        measured = lp_norm(fd, condition_measure(net.mu, d), p)
        lf = net.generator @ f
        if p == math.inf:
            factor = 1.0 / qp
        else:
            hit_mass = float(K1d.max())
            mass = float(net.mu[d].sum())
            factor = hit_mass ** (1.0 / p) / (qp * mass ** (1.0 / p))
        return float(measured), float(factor * lp_norm(lf, net.mu, p))

    def _lift_check(self, lifted, coeffs, part, factor, p) -> tuple[float, float]:
        """(measured, bound) for ``coeffs`` on ``part`` lifted to ``lifted``."""
        mu = self.mu
        measured = lp_norm(lifted, mu, p)
        mass = float(mu[part].sum())
        mass_f = mass ** (1.0 / p)
        bound = factor * mass_f * lp_norm(coeffs, condition_measure(mu, part), p)
        return float(measured), float(bound)


def analyze_level(
    net: Network, keep: Sequence[int], q_prime: float, values: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Split a signal into (approximation on kept, detail on dropped)."""
    return PyramidLevel.of(net, keep, q_prime).analyze(values)


def reconstruct_level(
    net: Network,
    keep: Sequence[int],
    q_prime: float,
    approx: Sequence[float],
    detail: Sequence[float],
) -> np.ndarray:
    """Exact inverse of :func:`analyze_level`.

    The approximation is lifted through ``Id - Lbar/q'`` on kept vertices
    and through harmonic extension on dropped ones; the detail is lifted
    through the complementary blocks.  ``Lbar`` is the reduced network's
    generator: the Schur complement on the kept set, its rates checked.
    """
    return PyramidLevel.of(net, keep, q_prime).reconstruct(approx, detail)


def basis_functions(
    net: Network, keep: Sequence[int], q_prime: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analysis basis as functions on the network.

    Row ``i`` of the first block is the scaling function of kept vertex
    ``i`` (killed-walk kernel row over ``mu``); row ``j`` of the second is
    the wavelet of dropped vertex ``j``, which has zero mean under ``mu``.
    Analysis coefficients are ``mu``-inner products against these rows.
    Every row of ``K_{q'}`` is wanted, so this reads :func:`oracle.green`.
    ``DegenerateBasis`` when the rows are numerically linearly dependent.
    """
    lvl = PyramidLevel.of(net, keep, q_prime)
    K = oracle.green(net, q_prime).K
    scaling = K[lvl.keep, :] / net.mu[None, :]
    wavelets = (K - np.eye(net.n))[lvl.dropped, :] / net.mu[None, :]
    stacked = np.vstack([scaling, wavelets])
    g = (stacked * net.mu[None, :]) @ stacked.T
    lam = np.linalg.eigvalsh(0.5 * (g + g.T))
    if lam[0] <= config.GRAM_SINGULAR_REL * max(lam[-1], 1e-300):
        raise DegenerateBasis("analysis basis is numerically linearly dependent")
    return scaling, wavelets


# ---------------------------------------------------------------------------
# pyramids


@dataclass
class Pyramid:
    """Levels from the base network down, and the apex signal on the
    network after the last level, whose measure is ``apex_mu``."""

    base: Network
    levels: list[PyramidLevel]
    apex: np.ndarray
    seed: int | None = None

    @cached_property
    def base_masses(self) -> list[float]:
        """Total base-measure weight each level's network still carries,
        then the apex network's: 1 at the base, times ``mu(keep)`` at every
        level."""
        masses = [1.0]
        for lvl in self.levels:
            masses.append(masses[-1] * float(lvl.mu[lvl.keep].sum()))
        return masses

    @property
    def apex_mu(self) -> np.ndarray:
        return self.levels[-1].next_network.mu if self.levels else self.base.mu

    @property
    def depth(self) -> int:
        return len(self.levels)

    def detail_count(self) -> int:
        return sum(lvl.dropped.size for lvl in self.levels)


def _choose_q(net: Network, n_tuning: int, tune_seed: int) -> float:
    records = sampler.estimate_tuning(net, None, n_tuning, seed=tune_seed)
    return sampler.chosen_tuning(records).q


def _draw_keep(net: Network, q: float, seed: int, level: int) -> np.ndarray:
    for retry in range(_MAX_ROOT_RETRIES):
        forest = sampler.wilson_sample(
            net, q, seed=seed, sample_index=(level << 8) | retry
        )
        if 0 < forest.roots.size < net.n:
            return forest.roots
    raise NumericalError(
        f"no proper root subset in {_MAX_ROOT_RETRIES} draws at q={q}"
    )


def check_build_args(
    seed: int | None,
    *,
    max_levels: int | None = None,
    min_size: int = 2,
    n_tuning_samples: int = 16,
    sparsify_theta: float | None = None,
    forced_keep: Sequence[Sequence[int]] | None = None,
) -> None:
    """Raise ``InvalidParams`` unless :func:`build_pyramid` accepts these:
    a seed in ``[0, 2**64)`` when kept sets are sampled,
    ``max_levels >= 0``, ``min_size >= 2``, ``n_tuning_samples >= 1`` and
    a finite ``sparsify_theta >= 0``."""
    if forced_keep is None:
        if seed is None:
            raise InvalidParams("seed is required when kept sets are sampled")
        sampler.check_stream(seed, 0, 1)
    if max_levels is not None and max_levels < 0:
        raise InvalidParams("max_levels must be >= 0")
    if min_size < 2:
        raise InvalidParams("min_size must be at least 2")
    if n_tuning_samples < 1:
        raise InvalidParams("n_tuning_samples must be >= 1")
    if sparsify_theta is not None:
        cg.check_theta(sparsify_theta)


def build_pyramid(
    net: Network,
    values: Sequence[float],
    *,
    seed: int | None = None,
    max_levels: int | None = None,
    min_size: int = 2,
    n_tuning_samples: int = 16,
    sparsify_theta: float | None = None,
    forced_keep: Sequence[Sequence[int]] | None = None,
) -> Pyramid:
    """Build a multiresolution pyramid for a signal.

    Kept sets are the roots of a sampled spanning forest at a killing
    rate tuned per level (grid search minimizing the estimated stability
    objective), and the smoothing rate is ``2 w_max |kept| / |dropped|``.
    ``forced_keep`` bypasses sampling with explicit per-level kept sets
    (in that level's coordinates).  Each reduced network is the next
    level's network, unless ``sparsify_theta`` is set: then it is
    sparsified first, and the exact Schur complement is still what the
    reconstruction and the stability constants of the current level use.
    Level ``k`` tunes with seed ``seed + k + 1`` modulo ``2**64``.  Every
    argument is checked (:func:`check_build_args`) before any work.
    """
    f = _as_signal(values, net.n)
    check_build_args(
        seed,
        max_levels=max_levels,
        min_size=min_size,
        n_tuning_samples=n_tuning_samples,
        sparsify_theta=sparsify_theta,
        forced_keep=forced_keep,
    )

    levels: list[PyramidLevel] = []
    current = net
    while current.n >= min_size:
        if max_levels is not None and len(levels) >= max_levels:
            break
        idx = len(levels)
        q_tuning = None
        if forced_keep is not None:
            if idx >= len(forced_keep):
                break
            keep = forced_keep[idx]
        else:
            # tuning seeds wrap around the seed domain [0, 2**64)
            q_tuning = _choose_q(
                current, n_tuning_samples, (seed + idx + 1) & _SEED_MASK
            )
            keep = _draw_keep(current, q_tuning, seed, idx)
        reduction = cg.ReducedNetwork(current, keep)
        # a kept set with nothing dropped is refused by the level
        dropped = max(reduction.dropped.size, 1)
        q_prime = 2.0 * current.w_max * reduction.kept.size / dropped
        level = PyramidLevel(reduction, q_prime, q_tuning=q_tuning)
        approx, level.detail = level.analyze(f)
        if sparsify_theta is not None:
            sparse = cg.sparsify(reduction, q_prime, sparsify_theta)
            if sparse is not reduction.network:
                level.stored_next = sparse
        levels.append(level)
        current = level.next_network
        f = approx

    return Pyramid(base=net, levels=levels, apex=f, seed=seed)


def signal_levels(pyr: Pyramid) -> list[np.ndarray]:
    """Smoothed signal at each level, from the base signal down to the
    apex (length ``depth + 1``)."""
    return _lift(pyr, [lvl.detail for lvl in pyr.levels])


def _lift(pyr: Pyramid, details: list[np.ndarray]) -> list[np.ndarray]:
    """Signals of every level, base first, reconstructed from the apex
    and one detail vector per level."""
    out = [pyr.apex]
    for lvl, det in zip(reversed(pyr.levels), reversed(details)):
        out.append(lvl.reconstruct(out[-1], det))
    out.reverse()
    return out


def reconstruct_pyramid(pyr: Pyramid) -> np.ndarray:
    """Invert the full pyramid (exact up to roundoff)."""
    return signal_levels(pyr)[0]


def approximation(pyr: Pyramid) -> np.ndarray:
    """Reconstruction from the apex alone, every detail set to zero."""
    return _lift(pyr, [np.zeros(lvl.dropped.size) for lvl in pyr.levels])[0]


# ---------------------------------------------------------------------------
# compression


@dataclass
class CompressionResult:
    keep_count: int
    total_details: int
    values: np.ndarray
    rel_error: float


def _detail_scores(pyr: Pyramid) -> list[tuple[float, int, int]]:
    """Detail coefficients ranked by energy contribution to the base
    2-norm: |coefficient| times the square root of the base-measure mass
    of the vertex carrying it.  Ties break by level, then by position in
    the level."""
    scores = [
        np.abs(lvl.detail) * np.sqrt(lvl.mu[lvl.dropped] * mass)
        for lvl, mass in zip(pyr.levels, pyr.base_masses)
    ]
    li = np.repeat(np.arange(len(scores)), [s.size for s in scores])
    di = np.concatenate([np.arange(s.size) for s in scores] + [np.zeros(0, int)])
    score = np.concatenate(scores + [np.zeros(0)])
    order = np.lexsort((di, li, -score))
    return list(zip(score[order].tolist(), li[order].tolist(), di[order].tolist()))


def compress(pyr: Pyramid, keep_count: int) -> CompressionResult:
    """Reconstruct keeping only the ``keep_count`` largest detail
    coefficients (nested: larger counts always include smaller ones)."""
    return _compress(pyr, keep_count, reconstruct_pyramid(pyr), _detail_scores(pyr))


def check_keep_count(pyr: Pyramid, keep_count: int) -> None:
    """Raise ``InvalidParams`` unless :func:`compress` accepts ``keep_count``."""
    total = pyr.detail_count()
    if not (0 <= keep_count <= total):
        raise InvalidParams(f"keep_count must lie in 0..{total}")


def _compress(
    pyr: Pyramid,
    keep_count: int,
    exact: np.ndarray,
    ranked: list[tuple[float, int, int]],
) -> CompressionResult:
    """:func:`compress` against the full reconstruction ``exact``, keeping
    the first ``keep_count`` coefficients of the ranking ``ranked`` of
    :func:`_detail_scores`."""
    check_keep_count(pyr, keep_count)
    details = [np.zeros(lvl.dropped.size) for lvl in pyr.levels]
    for _, li, di in ranked[:keep_count]:
        details[li][di] = pyr.levels[li].detail[di]
    values = _lift(pyr, details)[0]
    mu = pyr.base.mu
    denom = lp_norm(exact, mu, 2.0)
    rel = 0.0 if denom == 0.0 else lp_norm(values - exact, mu, 2.0) / denom
    return CompressionResult(
        keep_count=keep_count, total_details=pyr.detail_count(),
        values=values, rel_error=float(rel),
    )


def check_fractions(fractions: Sequence[float]) -> None:
    """Raise ``InvalidParams`` unless every fraction lies in [0, 1]."""
    if not all(0.0 <= frac <= 1.0 for frac in fractions):
        raise InvalidParams("fractions must lie in [0, 1]")


def compression_curve(
    pyr: Pyramid, fractions: Sequence[float]
) -> list[CompressionResult]:
    """Compression results at several kept fractions of the detail
    budget (fraction 1 keeps everything and is exact).  The coefficients
    are ranked once for the whole curve."""
    check_fractions(fractions)
    total = pyr.detail_count()
    exact = reconstruct_pyramid(pyr)
    ranked = _detail_scores(pyr)
    return [
        _compress(pyr, int(round(frac * total)), exact, ranked) for frac in fractions
    ]


# ---------------------------------------------------------------------------
# stability bounds


def detail_size_check(
    net: Network, keep: Sequence[int], q_prime: float, values: Sequence[float], p: float
) -> tuple[float, float]:
    """(measured, bound) for the size of a signal's detail coefficients:
    smooth signals (small ``L f``) produce small details.

    Measured is the conditioned p-norm of ``(K_{q'} f - f)`` on the
    dropped vertices; the bound is ``||L f|| / q'`` times, for finite
    ``p``, ``(max K_{q'} 1_D / mu(D))^(1/p)``.  ``K_{q'} f`` and
    ``K_{q'} 1_D`` come from one two-column solve, not from ``K_{q'}``.
    """
    return PyramidLevel.of(net, keep, q_prime).detail_size_check(values, p)


@dataclass
class LevelBounds:
    level: int
    q_prime: float
    approx_measured: float
    approx_bound: float
    detail_measured: float
    detail_bound: float
    detail_size_measured: float
    detail_size_bound: float


@dataclass
class StabilityReport:
    p: float
    levels: list[LevelBounds]
    analysis_measured: float
    analysis_bound: float
    approx_gap_measured: float
    approx_gap_bound: float

    def all_dominated(self, slack: float = 1e-9) -> bool:
        ok = (
            self.analysis_measured <= self.analysis_bound + slack
            and self.approx_gap_measured <= self.approx_gap_bound + slack
        )
        for lb in self.levels:
            ok = ok and lb.approx_measured <= lb.approx_bound + slack
            ok = ok and lb.detail_measured <= lb.detail_bound + slack
            ok = ok and lb.detail_size_measured <= lb.detail_size_bound + slack
        return ok


def check_stability_args(pyr: Pyramid, p: float) -> None:
    """Raise ``InvalidParams`` unless :func:`stability_bounds` accepts these."""
    check_p(p)
    if not pyr.levels:
        raise InvalidParams("pyramid has no levels")


def stability_bounds(pyr: Pyramid, p: float) -> StabilityReport:
    """Measured norms versus their a priori bounds, per level and for the
    whole transform.

    Per level: the approximation and detail lift operators applied to the
    pyramid's own coefficients, and the detail-size inequality against
    the roughness ``L f`` of the level signal.  Globally: the composite
    analysis norm against ``2^(1/p*) (1+N)^(1/p) ||f||``, and the gap
    between the signal and its pure approximation against the cascade
    bound built from per-level constants.  A finite ``p`` so large that
    a constant's ``p``-th power leaves the float range raises
    ``NumericalError``.
    """
    check_stability_args(pyr, p)
    try:
        return _stability_bounds(pyr, p)
    except OverflowError:
        raise NumericalError(
            f"stability bounds at p = {p} overflow the float range"
        ) from None


def _stability_bounds(pyr: Pyramid, p: float) -> StabilityReport:
    sigs = signal_levels(pyr)
    base_mu = pyr.base.mu
    f0 = sigs[0]
    pstar = holder_conjugate(p)

    # each check returns a (measured, bound) pair, in LevelBounds order
    level_rows = [
        LevelBounds(
            i,
            lvl.q_prime,
            *lvl.approx_check(sigs[i + 1], p),
            *lvl.detail_check(lvl.detail, p),
            *lvl.detail_size_check(sigs[i], p),
        )
        for i, lvl in enumerate(pyr.levels)
    ]

    # composite analysis norm: base-mass-weighted conditioned norms of the
    # apex and of each detail vector
    n_levels = len(pyr.levels)
    if p == math.inf:
        parts = [lp_norm(pyr.apex, pyr.apex_mu, p)]
        for lvl in pyr.levels:
            if lvl.dropped.size:
                parts.append(
                    lp_norm(lvl.detail, condition_measure(lvl.mu, lvl.dropped), p)
                )
        analysis_measured = max(parts)
        analysis_bound = 2.0 * lp_norm(f0, base_mu, p)
    else:
        masses = pyr.base_masses
        acc = masses[-1] * lp_norm(pyr.apex, pyr.apex_mu, p) ** p
        for lvl, mass in zip(pyr.levels, masses):
            if lvl.dropped.size:
                w = mass * float(lvl.mu[lvl.dropped].sum())
                acc += w * lp_norm(
                    lvl.detail, condition_measure(lvl.mu, lvl.dropped), p
                ) ** p
        analysis_measured = acc ** (1.0 / p)
        two = 2.0 ** (1.0 / pstar)
        analysis_bound = two * (1 + n_levels) ** (1.0 / p) * lp_norm(f0, base_mu, p)

    # cascade bound on ||f - approximation||: detail contributions pushed
    # through the approximation lifts, with intertwining defects feeding
    # the roughness term
    a_sum = 0.0
    b_sum = 0.0
    defect_acc = 0.0
    prod = 1.0
    for lvl in pyr.levels:
        term = prod * lvl.detail_factor(p) / lvl.q_prime
        a_sum += term
        b_sum += term * defect_acc
        wb = lvl.network.w_max / lvl.reduction.speeds[0]
        defect_acc += 2.0 * lvl.q_prime * wb ** (1.0 / pstar)
        prod *= lvl.approx_factor(p)
    lf = pyr.base.generator @ f0
    gap_bound = a_sum * lp_norm(lf, base_mu, p) + b_sum * lp_norm(f0, base_mu, p)
    gap_measured = lp_norm(f0 - approximation(pyr), base_mu, p)

    return StabilityReport(
        p=p,
        levels=level_rows,
        analysis_measured=float(analysis_measured),
        analysis_bound=float(analysis_bound),
        approx_gap_measured=float(gap_measured),
        approx_gap_bound=float(gap_bound),
    )
