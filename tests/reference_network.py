"""Loop-based reference for ``Network.__init__``.

This is the per-edge Python constructor the array-native ``Network``
replaced: canonicalise and validate each edge in input order, search the
graph depth first, solve ``mu`` by dense least squares and test detailed
balance edge by edge.  The property tests compare the two.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from forestnets import config
from forestnets.errors import (
    DuplicateEdge,
    InvalidParams,
    NonPositiveWeight,
    NotIrreducible,
    NumericalError,
)


def reference_network(edges, n: int) -> SimpleNamespace:
    """``n``, ``edges``, ``L``, ``w_max``, ``mu`` and ``reversible`` of the
    network, or the exception the loop-based constructor raised."""
    if n < 1:
        raise InvalidParams("network needs at least one vertex")
    if n > config.MAX_VERTICES:
        raise InvalidParams(
            f"network has {n} vertices, more than the supported "
            f"{config.MAX_VERTICES}"
        )

    canon = []
    seen = set()
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
    edges = tuple(canon)
    weights = {(s, d): w for s, d, w in edges}

    out = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    for src, dst, _ in edges:
        out[src].append(dst)
        inc[dst].append(src)
    if n > 1:
        for adj, direction in ((out, "forward"), (inc, "backward")):
            reached = np.zeros(n, dtype=bool)
            stack = [0]
            reached[0] = True
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if not reached[y]:
                        reached[y] = True
                        stack.append(y)
            if not reached.all():
                missing = int(np.flatnonzero(~reached)[0])
                raise NotIrreducible(
                    f"vertex {missing} not {direction}-reachable from 0"
                )

    L = np.zeros((n, n))
    for src, dst, w in edges:
        L[src, dst] = w
    L[np.arange(n), np.arange(n)] = -L.sum(axis=1)
    if n == 1:
        return SimpleNamespace(
            n=n, edges=edges, L=L, w_max=0.0, mu=np.array([1.0]), reversible=True
        )

    w_max = float((-np.diag(L)).max())
    a = np.vstack([L.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    mu, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.any(mu <= 0):
        raise NumericalError("invariant measure has nonpositive entries")
    resid = np.abs(mu @ L).max()
    if resid > config.STRUCTURAL_TOL * max(1.0, w_max):
        raise NumericalError(f"invariant measure residual {resid:.3e} above tolerance")

    tol = config.STRUCTURAL_TOL
    reversible = True
    for src, dst, w in edges:
        flow = mu[src] * w
        back = mu[dst] * weights.get((dst, src), 0.0)
        if abs(flow - back) > tol * max(1.0, flow):
            reversible = False
            break
    return SimpleNamespace(
        n=n, edges=edges, L=L, w_max=w_max, mu=mu, reversible=reversible
    )
