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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import coarsegrain as cg
from . import config, oracle, sampler
from .errors import DegenerateBasis, InvalidParams, NumericalError, SingularSystem
from .network import Network
from .norms import condition_measure, holder_conjugate, lp_norm

_MAX_ROOT_RETRIES = 64
_SEED_MASK = (1 << 64) - 1


def _reduction(net: Network, keep: Sequence[int]) -> cg.ReducedNetwork:
    """The reduction of an analysis step, whose kept set must be a proper
    nonempty subset of the network's vertices."""
    reduction = cg.ReducedNetwork(net, keep)
    if reduction.kept.size >= net.n:
        raise InvalidParams("kept set must be a proper nonempty subset")
    return reduction


def _as_signal(values: Sequence[float], n: int) -> np.ndarray:
    f = np.asarray(values, dtype=float)
    if f.shape != (n,):
        raise InvalidParams(f"signal must have shape ({n},), got {f.shape}")
    return f


# ---------------------------------------------------------------------------
# one level


class _LevelOperator:
    """One analysis step: the reduction of the level's network onto its
    kept set, which computes the Schur complement, its ``w_max``, the
    return speeds and one LU factorization of ``-L_DD`` once each (see
    :class:`coarsegrain.ReducedNetwork`), and the smoothing rate ``q'``
    with the operators that depend on it.  No query forms the killed
    kernel ``K_{q'}`` or any inverse: :meth:`reconstruct` solves with the
    kept factorization, and :meth:`detail_size_check` solves
    ``q' Id - L`` for the two vectors it needs, so a pyramid holds no
    ``n x n`` inverse.
    """

    def __init__(self, reduction: cg.ReducedNetwork, q_prime: float) -> None:
        if not (math.isfinite(q_prime) and q_prime > 0):
            raise InvalidParams(f"q' must be positive and finite, got {q_prime}")
        self.reduction = reduction
        self.net = reduction.parent
        self.kept = reduction.kept
        self.dropped = reduction.dropped
        self.q_prime = q_prime

    def reconstruct(
        self, approx: Sequence[float], detail: Sequence[float]
    ) -> np.ndarray:
        k, d, qp = self.kept, self.dropped, self.q_prime
        fb = _as_signal(approx, k.size)
        fd = _as_signal(detail, d.size)
        L, n = self.net.L, self.net.n
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
        out[k] = fb - (self.reduction.Lbar @ fb) / qp + (L @ padded)[k]
        out[d] = harmonic - fd - qp * inv_detail
        return out

    def approx_factor(self, p: float) -> float:
        a = 1.0 + 2.0 * self.reduction.w_max / self.q_prime
        if p == math.inf:
            return a
        return (a**p + self.net.w_max / self.reduction.speeds[0]) ** (1.0 / p)

    def detail_factor(self, p: float) -> float:
        beta, gamma = self.reduction.speeds
        w_over_beta = self.net.w_max / beta
        b = 1.0 + self.q_prime / gamma if math.isfinite(gamma) else 1.0
        if p == math.inf:
            return max(w_over_beta, b)
        pstar = holder_conjugate(p)
        lead = w_over_beta ** (p / pstar) if pstar != math.inf else 1.0
        return (lead + b**p) ** (1.0 / p)

    def approx_check(self, coarse: Sequence[float], p: float) -> tuple[float, float]:
        fb = _as_signal(coarse, self.kept.size)
        lifted = self.reconstruct(fb, np.zeros(self.dropped.size))
        return self._lift_check(lifted, fb, self.kept, self.approx_factor(p), p)

    def detail_check(self, detail: Sequence[float], p: float) -> tuple[float, float]:
        fd = _as_signal(detail, self.dropped.size)
        lifted = self.reconstruct(np.zeros(self.kept.size), fd)
        return self._lift_check(lifted, fd, self.dropped, self.detail_factor(p), p)

    def detail_size_check(
        self, values: Sequence[float], p: float
    ) -> tuple[float, float]:
        """(measured, bound) for the size of a signal's detail coefficients
        (see :func:`detail_size_check`), from one solve of ``q' Id - L``
        for ``f`` and ``1_D``."""
        net, d, qp = self.net, self.dropped, self.q_prime
        f = _as_signal(values, net.n)
        rhs = np.zeros((net.n, 2))
        rhs[:, 0] = f
        rhs[d, 1] = 1.0
        M = -net.L
        M.flat[:: net.n + 1] += qp
        try:
            G = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"q' Id - L singular at q'={qp}") from exc
        oracle.check_residual(M, G, rhs, "q' Id - L")
        Kf, K1d = qp * G[:, 0], qp * G[:, 1]
        fd = (Kf - f)[d]
        measured = lp_norm(fd, condition_measure(net.mu, d), p)
        lf = net.L @ f
        if p == math.inf:
            factor = 1.0 / qp
        else:
            hit_mass = float(K1d.max())
            mass = float(net.mu[d].sum())
            factor = hit_mass ** (1.0 / p) / (qp * mass ** (1.0 / p))
        return float(measured), float(factor * lp_norm(lf, net.mu, p))

    def _lift_check(self, lifted, coeffs, part, factor, p) -> tuple[float, float]:
        """(measured, bound) for ``coeffs`` on ``part`` lifted to ``lifted``."""
        mu = self.net.mu
        measured = lp_norm(lifted, mu, p)
        mass = float(mu[part].sum())
        mass_f = mass ** (1.0 / p) if p != math.inf else 1.0
        bound = factor * mass_f * lp_norm(coeffs, condition_measure(mu, part), p)
        return float(measured), float(bound)


def analyze_level(
    net: Network, keep: Sequence[int], q_prime: float, values: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Split a signal into (approximation on kept, detail on dropped)."""
    op = _LevelOperator(_reduction(net, keep), q_prime)
    f = _as_signal(values, net.n)
    smooth = oracle.green(net, q_prime).K @ f
    return smooth[op.kept], (smooth - f)[op.dropped]


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
    through the complementary blocks.  ``Lbar`` is the exact Schur
    complement of the generator on the kept set.
    """
    return _LevelOperator(_reduction(net, keep), q_prime).reconstruct(approx, detail)


def basis_functions(
    net: Network, keep: Sequence[int], q_prime: float, check: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Analysis basis as functions on the network.

    Row ``i`` of the first block is the scaling function of kept vertex
    ``i`` (killed-walk kernel row over ``mu``); row ``j`` of the second is
    the wavelet of dropped vertex ``j``, which has zero mean under ``mu``.
    Analysis coefficients are ``mu``-inner products against these rows.
    """
    op = _LevelOperator(_reduction(net, keep), q_prime)
    K = oracle.green(net, q_prime).K
    scaling = K[op.kept, :] / net.mu[None, :]
    wavelets = (K - np.eye(net.n))[op.dropped, :] / net.mu[None, :]
    if check:
        stacked = np.vstack([scaling, wavelets])
        g = (stacked * net.mu[None, :]) @ stacked.T
        lam = np.linalg.eigvalsh(0.5 * (g + g.T))
        if lam[0] <= config.GRAM_SINGULAR_REL * max(lam[-1], 1e-300):
            raise DegenerateBasis(
                "analysis basis is numerically linearly dependent"
            )
    return scaling, wavelets


# ---------------------------------------------------------------------------
# pyramids


@dataclass
class PyramidLevel:
    """One analysis step of a pyramid.

    ``op`` is the step's operator, which holds the level's network (level
    0 is the base), its ``keep`` and ``dropped`` index sets into that
    network, ``q_prime`` and the exact reduction onto ``keep``; position
    ``i`` of the next level corresponds to ``keep[i]`` here.
    ``base_mass`` is the total base-measure weight the level still
    carries.  ``stored_next`` is the network the next level runs on when
    that is not the exact reduction's: a sparsification of it, or, read
    from an archive, a stored network that may be either; otherwise it is
    ``None``.  The level's measure ``mu`` (the base measure conditioned
    down to this level) is its network's own.
    """

    op: _LevelOperator
    detail: np.ndarray
    base_mass: float
    stored_next: Network | None = None
    q_tuning: float | None = None

    @property
    def network(self) -> Network:
        return self.op.net

    @property
    def mu(self) -> np.ndarray:
        return self.network.mu

    @property
    def next_network(self) -> Network:
        """The network the next level runs on."""
        if self.stored_next is None:
            return self.op.reduction.network
        return self.stored_next

    @property
    def sparsified(self) -> bool:
        return self.stored_next is not None

    @property
    def keep(self) -> np.ndarray:
        return self.op.kept

    @property
    def dropped(self) -> np.ndarray:
        return self.op.dropped

    @property
    def q_prime(self) -> float:
        return self.op.q_prime

    @property
    def n(self) -> int:
        return self.network.n


def _next_base_mass(levels: list[PyramidLevel]) -> float:
    """Base-measure weight carried by the network after ``levels``: 1 at
    the base, times ``mu(keep)`` at every level."""
    if not levels:
        return 1.0
    last = levels[-1]
    return last.base_mass * float(last.mu[last.keep].sum())


@dataclass
class Pyramid:
    """Levels from the base network down, and the apex signal on the
    network after the last level, whose measure and base-measure weight
    are ``apex_mu`` and ``apex_base_mass``."""

    base: Network
    levels: list[PyramidLevel]
    apex: np.ndarray
    seed: int | None = None

    @property
    def apex_mu(self) -> np.ndarray:
        return self.levels[-1].next_network.mu if self.levels else self.base.mu

    @property
    def apex_base_mass(self) -> float:
        return _next_base_mass(self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def detail_count(self) -> int:
        return sum(lvl.dropped.size for lvl in self.levels)


def _choose_q(
    net: Network,
    q_grid: Sequence[float] | None,
    n_tuning: int,
    tune_seed: int,
) -> float:
    records = sampler.estimate_tuning(net, q_grid, n_tuning, seed=tune_seed)
    best = min(records, key=lambda r: (r.objective, -r.q))
    return best.q


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


def build_pyramid(
    net: Network,
    values: Sequence[float],
    *,
    seed: int | None = None,
    max_levels: int | None = None,
    min_size: int = 2,
    q_grid: Sequence[float] | None = None,
    n_tuning_samples: int = 16,
    sparsify_theta: float | None = None,
    forced_keep: Sequence[Sequence[int]] | None = None,
    forced_q_prime: Sequence[float] | None = None,
) -> Pyramid:
    """Build a multiresolution pyramid for a signal.

    Kept sets are the roots of a sampled spanning forest at a killing
    rate tuned per level (grid search minimizing the estimated stability
    objective), and the smoothing rate is ``2 w_max |roots| / |dropped|``.
    ``forced_keep`` bypasses sampling with explicit per-level kept sets
    (in that level's coordinates); ``forced_q_prime`` optionally pins the
    smoothing rates alongside it.  When ``sparsify_theta`` is set, each
    reduced network is sparsified before feeding the next level; the
    exact Schur complement is still what the reconstruction and the
    stability constants of the current level use.  Level ``k`` tunes with
    seed ``seed + k + 1`` modulo ``2**64``.
    """
    f = _as_signal(values, net.n)
    if forced_keep is None and seed is None:
        raise InvalidParams("seed is required when kept sets are sampled")
    if forced_q_prime is not None:
        if forced_keep is None or len(forced_q_prime) != len(forced_keep):
            raise InvalidParams(
                "forced_q_prime requires forced_keep of the same length"
            )
    if min_size < 2:
        raise InvalidParams("min_size must be at least 2")

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
                current, q_grid, n_tuning_samples, (seed + idx + 1) & _SEED_MASK
            )
            keep = _draw_keep(current, q_tuning, seed, idx)
        reduction = _reduction(current, keep)
        kept = reduction.kept
        if forced_q_prime is not None:
            q_prime = float(forced_q_prime[idx])
        else:
            q_prime = 2.0 * current.w_max * kept.size / (current.n - kept.size)
        op = _LevelOperator(reduction, q_prime)

        approx, detail = analyze_level(current, kept, q_prime, f)
        stored_next = None
        if sparsify_theta is not None:
            sparse = cg.sparsify(reduction, q_prime, sparsify_theta)
            if sparse is not reduction.network:
                stored_next = sparse
        level = PyramidLevel(
            op=op,
            detail=detail,
            base_mass=_next_base_mass(levels),
            stored_next=stored_next,
            q_tuning=q_tuning,
        )
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
        out.append(lvl.op.reconstruct(out[-1], det))
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
    of the vertex carrying it.  Ties break deterministically."""
    scored = []
    for li, lvl in enumerate(pyr.levels):
        base_w = lvl.mu[lvl.dropped] * lvl.base_mass
        for di in range(lvl.dropped.size):
            scored.append(
                (float(np.abs(lvl.detail[di]) * np.sqrt(base_w[di])), li, di)
            )
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    return scored


def compress(pyr: Pyramid, keep_count: int) -> CompressionResult:
    """Reconstruct keeping only the ``keep_count`` largest detail
    coefficients (nested: larger counts always include smaller ones)."""
    return _compress(pyr, keep_count, reconstruct_pyramid(pyr))


def _compress(pyr: Pyramid, keep_count: int, exact: np.ndarray) -> CompressionResult:
    total = pyr.detail_count()
    if not (0 <= keep_count <= total):
        raise InvalidParams(f"keep_count must lie in 0..{total}")
    details = [np.zeros(lvl.dropped.size) for lvl in pyr.levels]
    for _, li, di in _detail_scores(pyr)[:keep_count]:
        details[li][di] = pyr.levels[li].detail[di]
    values = _lift(pyr, details)[0]
    mu = pyr.base.mu
    denom = lp_norm(exact, mu, 2.0)
    rel = 0.0 if denom == 0.0 else lp_norm(values - exact, mu, 2.0) / denom
    return CompressionResult(
        keep_count=keep_count, total_details=total, values=values, rel_error=float(rel)
    )


def compression_curve(
    pyr: Pyramid, fractions: Sequence[float]
) -> list[CompressionResult]:
    """Compression results at several kept fractions of the detail
    budget (fraction 1 keeps everything and is exact)."""
    if not all(0.0 <= frac <= 1.0 for frac in fractions):
        raise InvalidParams("fractions must lie in [0, 1]")
    total = pyr.detail_count()
    exact = reconstruct_pyramid(pyr)
    return [_compress(pyr, int(round(frac * total)), exact) for frac in fractions]


# ---------------------------------------------------------------------------
# stability bounds


def approx_check(
    net: Network, keep: Sequence[int], q_prime: float, coarse: Sequence[float], p: float
) -> tuple[float, float]:
    """(measured, bound) for lifting a coarse signal back to the level.

    Measured is the conditioned p-norm of the lifted signal; the bound is
    the approximation-operator constant times the kept-mass correction
    times the coarse norm.
    """
    return _LevelOperator(_reduction(net, keep), q_prime).approx_check(coarse, p)


def detail_check(
    net: Network, keep: Sequence[int], q_prime: float, detail: Sequence[float], p: float
) -> tuple[float, float]:
    """(measured, bound) for lifting a detail vector back to the level."""
    return _LevelOperator(_reduction(net, keep), q_prime).detail_check(detail, p)


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
    return _LevelOperator(_reduction(net, keep), q_prime).detail_size_check(values, p)


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


def stability_bounds(pyr: Pyramid, p: float) -> StabilityReport:
    """Measured norms versus their a priori bounds, per level and for the
    whole transform.

    Per level: the approximation and detail lift operators applied to the
    pyramid's own coefficients, and the detail-size inequality against
    the roughness ``L f`` of the level signal.  Globally: the composite
    analysis norm against ``2^(1/p*) (1+N)^(1/p) ||f||``, and the gap
    between the signal and its pure approximation against the cascade
    bound built from per-level constants.
    """
    if p != math.inf and p < 1:
        raise InvalidParams("p must be >= 1 or inf")
    if not pyr.levels:
        raise InvalidParams("pyramid has no levels")
    sigs = signal_levels(pyr)
    base_mu = pyr.base.mu
    f0 = sigs[0]
    pstar = holder_conjugate(p)

    # each check returns a (measured, bound) pair, in LevelBounds order
    level_rows = [
        LevelBounds(
            i,
            lvl.q_prime,
            *lvl.op.approx_check(sigs[i + 1], p),
            *lvl.op.detail_check(lvl.detail, p),
            *lvl.op.detail_size_check(sigs[i], p),
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
        acc = pyr.apex_base_mass * lp_norm(pyr.apex, pyr.apex_mu, p) ** p
        for lvl in pyr.levels:
            if lvl.dropped.size:
                w = lvl.base_mass * float(lvl.mu[lvl.dropped].sum())
                acc += w * lp_norm(
                    lvl.detail, condition_measure(lvl.mu, lvl.dropped), p
                ) ** p
        analysis_measured = acc ** (1.0 / p)
        two = 2.0 ** (1.0 / pstar) if pstar != math.inf else 1.0
        analysis_bound = two * (1 + n_levels) ** (1.0 / p) * lp_norm(f0, base_mu, p)

    # cascade bound on ||f - approximation||: detail contributions pushed
    # through the approximation lifts, with intertwining defects feeding
    # the roughness term
    a_sum = 0.0
    b_sum = 0.0
    defect_acc = 0.0
    prod = 1.0
    for lvl in pyr.levels:
        term = prod * lvl.op.detail_factor(p) / lvl.q_prime
        a_sum += term
        b_sum += term * defect_acc
        wb = lvl.network.w_max / lvl.op.reduction.speeds[0]
        defect_acc += 2.0 * lvl.q_prime * (
            wb ** (1.0 / pstar) if pstar != math.inf else 1.0
        )
        prod *= lvl.op.approx_factor(p)
    lf = pyr.levels[0].network.L @ f0
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
