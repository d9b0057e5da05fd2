"""Weighted directed networks viewed as continuous-time Markov generators.

A network on vertices ``0..n-1`` is a set of directed edges ``(x, y, w)``
with strictly positive weights and no self loops.  Its generator is the
matrix ``L`` with ``L(x, y) = w(x, y)`` off the diagonal and
``L(x, x) = -sum_y w(x, y)``, i.e. rows sum to zero.  All statistics in
this package (forest laws, Green's functions, coarse-graining, wavelets)
are expressed through ``L``, its invariant measure ``mu`` and the maximal
exit rate ``w_max``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

from . import config
from .errors import (
    DuplicateEdge,
    InvalidParams,
    NonPositiveWeight,
    NotIrreducible,
    NumericalError,
)

Edge = tuple[int, int, float]


class Network:
    """Irreducible weighted directed network with cached spectra-free data.

    Parameters
    ----------
    edges :
        iterable of ``(src, dst, weight)`` triples; weights must be finite
        and strictly positive, ordered pairs must be unique, no self loops.
    n :
        vertex count, at most ``config.MAX_VERTICES`` (checked before any
        edge is read).  Vertex ids must lie in ``0..n-1`` and the directed
        graph must be strongly connected.

    Attributes
    ----------
    n : int
    edges : tuple of (int, int, float), sorted by (src, dst)
    L : ndarray, the dense ``n x n`` generator
    w_max : float, maximal exit rate ``max_x -L(x, x)``
    mu : ndarray, invariant probability measure (``mu @ L == 0``)
    reversible : bool, detailed balance of ``mu`` and the weights
    """

    def __init__(self, edges: Iterable[Edge], n: int) -> None:
        if n < 1:
            raise InvalidParams("network needs at least one vertex")
        if n > config.MAX_VERTICES:
            raise InvalidParams(
                f"network has {n} vertices, more than the supported "
                f"{config.MAX_VERTICES}"
            )

        canon: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for src, dst, w in edges:
            src = int(src)
            dst = int(dst)
            w = float(w)
            if not (0 <= src < n and 0 <= dst < n):
                raise InvalidParams(f"edge ({src}, {dst}) outside 0..{n - 1}")
            if src == dst:
                raise InvalidParams(f"self loop at vertex {src} not allowed")
            if not np.isfinite(w) or w <= 0.0:
                raise NonPositiveWeight(f"edge ({src}, {dst}) has weight {w}")
            if (src, dst) in seen:
                raise DuplicateEdge(f"edge ({src}, {dst}) listed twice")
            seen.add((src, dst))
            canon.append((src, dst, w))
        canon.sort(key=lambda e: (e[0], e[1]))

        self.n = n
        self.edges: tuple[Edge, ...] = tuple(canon)

        self._check_irreducible()

        L = np.zeros((n, n))
        for src, dst, w in self.edges:
            L[src, dst] = w
        L[np.arange(n), np.arange(n)] = -L.sum(axis=1)
        self.L = L

        if n == 1:
            # single vertex: null generator, trivial measure
            self.w_max = 0.0
            self.mu = np.array([1.0])
            self.reversible = True
            return

        self.w_max = float((-np.diag(L)).max())
        self.mu = self._invariant_measure()
        self.reversible = self._detailed_balance()

    # -- representation ------------------------------------------------

    @cached_property
    def edge_weights(self) -> dict[tuple[int, int], float]:
        return {(s, d): w for s, d, w in self.edges}

    def weight(self, src: int, dst: int) -> float:
        """w(src, dst), zero when the edge is absent."""
        return self.edge_weights.get((src, dst), 0.0)

    @cached_property
    def adjacency(self) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Per-vertex jump data: (targets, cumulative jump probs, exit rates)."""
        targets: list[list[int]] = [[] for _ in range(self.n)]
        weights: list[list[float]] = [[] for _ in range(self.n)]
        for src, dst, w in self.edges:
            targets[src].append(dst)
            weights[src].append(w)
        rates = np.zeros(self.n)
        tarr: list[np.ndarray] = []
        cumw: list[np.ndarray] = []
        for x in range(self.n):
            wx = np.asarray(weights[x], dtype=float)
            rates[x] = wx.sum()
            tarr.append(np.asarray(targets[x], dtype=np.int64))
            c = np.cumsum(wx)
            cumw.append(c / c[-1])
        return tarr, cumw, rates

    # -- validation helpers --------------------------------------------

    def _check_irreducible(self) -> None:
        out: list[list[int]] = [[] for _ in range(self.n)]
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for src, dst, _ in self.edges:
            out[src].append(dst)
            inc[dst].append(src)
        if self.n > 1:
            for adj, direction in ((out, "forward"), (inc, "backward")):
                seen = np.zeros(self.n, dtype=bool)
                stack = [0]
                seen[0] = True
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if not seen[y]:
                            seen[y] = True
                            stack.append(y)
                if not seen.all():
                    missing = int(np.flatnonzero(~seen)[0])
                    raise NotIrreducible(
                        f"vertex {missing} not {direction}-reachable from 0"
                    )

    def _invariant_measure(self) -> np.ndarray:
        # mu L = 0 plus the normalization row, solved in one least squares
        # problem; the system is consistent, so the residual is numerical
        # noise only.
        a = np.vstack([self.L.T, np.ones(self.n)])
        b = np.zeros(self.n + 1)
        b[-1] = 1.0
        mu, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.any(mu <= 0):
            raise NumericalError("invariant measure has nonpositive entries")
        resid = np.abs(mu @ self.L).max()
        if resid > config.STRUCTURAL_TOL * max(1.0, self.w_max):
            raise NumericalError(
                f"invariant measure residual {resid:.3e} above tolerance"
            )
        return mu

    def _detailed_balance(self) -> bool:
        tol = config.STRUCTURAL_TOL
        for src, dst, w in self.edges:
            flow = self.mu[src] * w
            back = self.mu[dst] * self.weight(dst, src)
            if abs(flow - back) > tol * max(1.0, flow):
                return False
        return True

    # -- misc ------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Network(n={self.n}, edges={len(self.edges)}, "
            f"w_max={self.w_max:.6g}, reversible={self.reversible})"
        )


def build_network(edges: Iterable[Edge], n: int | None = None) -> Network:
    """Construct and validate a Network.

    When ``n`` is omitted it is inferred as ``max vertex id + 1``.
    """
    edge_list = list(edges)
    if n is None:
        if not edge_list:
            raise InvalidParams("cannot infer vertex count from empty edge list")
        n = 1 + max(max(e[0], e[1]) for e in edge_list)
    return Network(edge_list, int(n))


def skeleton(net: Network) -> np.ndarray:
    """Discrete-time jump kernel ``P = Id + L / w_max`` of the network.

    Rows are probability vectors; the diagonal holds the laziness
    ``1 - w(x) / w_max`` needed to equalize exit rates across vertices.
    """
    if net.n == 1:
        return np.array([[1.0]])
    P = np.eye(net.n) + net.L / net.w_max
    # defensive: clamp parasitic -0.0 and verify stochasticity
    P[np.abs(P) < 1e-300] = 0.0
    rows = P.sum(axis=1)
    if np.abs(rows - 1.0).max() > config.ARITHMETIC_TOL * net.n:
        raise NumericalError("skeleton rows do not sum to 1")
    return P


def vertex_set(n: int, ids: Iterable[int], what: str) -> np.ndarray:
    """Sorted ``int64`` ids of a set of vertices of an ``n``-vertex network.

    ``ids`` is read once, so any iterable works.  A repeated id or one
    outside ``0..n-1`` raises ``InvalidParams``; ``what`` names the set in
    the message.
    """
    given = [int(v) for v in ids]
    out = np.asarray(sorted(set(given)), dtype=np.int64)
    if out.size != len(given):
        raise InvalidParams(f"duplicate vertex in {what}")
    if out.size and (out[0] < 0 or out[-1] >= n):
        bad = out[0] if out[0] < 0 else out[-1]
        raise InvalidParams(f"vertex {bad} of {what} outside 0..{n - 1}")
    return out
