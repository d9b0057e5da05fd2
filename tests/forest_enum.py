"""Brute-force reference oracle: exhaustive enumeration of rooted spanning
forests on tiny networks (n <= 6).

A rooted spanning forest assigns to every vertex either "root" or one of
its outgoing edges, such that following the chosen edges never cycles.
Under killing rate q and forced roots B, a forest phi has unnormalized
weight  w(phi) * q^(|roots(phi)| - |B|)  and is admissible iff
B is a subset of roots(phi).

Everything here is deliberately independent of the package's linear
algebra: plain dictionaries, explicit products, explicit cycle checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class EnumForest:
    parent: tuple[int, ...]  # -1 for roots, else edge target
    weight: float            # product of edge weights

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p == -1)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, p) for i, p in enumerate(self.parent) if p != -1
        )

    def blocks(self) -> list[tuple[int, ...]]:
        """Tree blocks of the partition induced by the forest."""
        n = len(self.parent)
        root_of = []
        for v in range(n):
            x = v
            while self.parent[x] != -1:
                x = self.parent[x]
            root_of.append(x)
        out: dict[int, list[int]] = {}
        for v, r in enumerate(root_of):
            out.setdefault(r, []).append(v)
        return [tuple(sorted(vs)) for r, vs in sorted(out.items())]


def all_spanning_forests(n: int, edges: list[tuple[int, int, float]]) -> list[EnumForest]:
    """Every cycle-free out-degree<=1 subgraph spanning 0..n-1."""
    if n > 6:
        raise ValueError("enumeration oracle is gated to n <= 6")
    choices: list[list[tuple[int, float]]] = [[(-1, 1.0)] for _ in range(n)]
    for s, d, w in edges:
        choices[s].append((d, float(w)))
    forests = []
    for combo in itertools.product(*choices):
        parent = tuple(c[0] for c in combo)
        # cycle check: follow pointers from each vertex
        ok = True
        for v in range(n):
            seen = set()
            x = v
            while parent[x] != -1:
                if x in seen:
                    ok = False
                    break
                seen.add(x)
                x = parent[x]
            if not ok:
                break
        if not ok:
            continue
        weight = 1.0
        for c in combo:
            weight *= c[1]
        forests.append(EnumForest(parent=parent, weight=weight))
    return forests


def forest_law(
    n: int,
    edges: list[tuple[int, int, float]],
    q: float,
    B: tuple[int, ...] = (),
) -> dict[EnumForest, float]:
    """Exact probability of every admissible forest."""
    bset = set(B)
    masses = {}
    for phi in all_spanning_forests(n, edges):
        roots = set(phi.roots)
        if not bset.issubset(roots):
            continue
        masses[phi] = phi.weight * q ** (len(roots) - len(bset))
    z = math.fsum(masses.values())
    return {phi: m / z for phi, m in masses.items()}


def partition_function(
    n: int, edges: list[tuple[int, int, float]], q: float, B: tuple[int, ...] = ()
) -> float:
    bset = set(B)
    total = 0.0
    for phi in all_spanning_forests(n, edges):
        roots = set(phi.roots)
        if bset.issubset(roots):
            total += phi.weight * q ** (len(roots) - len(bset))
    return total


def root_inclusion(law: dict[EnumForest, float], A: tuple[int, ...]) -> float:
    aset = set(A)
    return sum(p for phi, p in law.items() if aset.issubset(phi.roots))


def edge_inclusion(
    law: dict[EnumForest, float],
    edge_list: list[tuple[int, int]],
    either_orientation: bool = False,
) -> float:
    total = 0.0
    for phi, p in law.items():
        es = set(phi.edges)
        if either_orientation:
            hit = all((e in es) or ((e[1], e[0]) in es) for e in edge_list)
        else:
            hit = all(e in es for e in edge_list)
        if hit:
            total += p
    return total


def root_count_pmf(law: dict[EnumForest, float]) -> dict[int, float]:
    terms: dict[int, list[float]] = {}
    for phi, p in law.items():
        terms.setdefault(len(phi.roots), []).append(p)
    return {k: math.fsum(ps) for k, ps in terms.items()}


def mean_hitting_of_roots(
    law: dict[EnumForest, float], hitting_times_fn, x: int
) -> float:
    """E over forests of E_x[time to reach roots(phi)], via a supplied
    hitting-time solver (cross-module check) or exact solver."""
    return math.fsum(
        p * hitting_times_fn(list(phi.roots))[x] for phi, p in law.items()
    )


def all_self_avoiding_paths(n: int, start: int) -> list[tuple[int, ...]]:
    """Every self-avoiding vertex sequence from ``start`` (any length)."""
    out: list[tuple[int, ...]] = []

    def grow(path: list[int]) -> None:
        out.append(tuple(path))
        for y in range(n):
            if y not in path:
                path.append(y)
                grow(path)
                path.pop()

    grow([start])
    return out


def exact_hitting_times(
    n: int, edges: list[tuple[int, int, float]], B: list[int]
) -> np.ndarray:
    """Independent dense solve of E_x[T_B] used by the enumeration checks."""
    L = np.zeros((n, n))
    for s, d, w in edges:
        L[s, d] += w
    L -= np.diag(L.sum(axis=1))
    free = [v for v in range(n) if v not in set(B)]
    h = np.zeros(n)
    if free:
        M = -L[np.ix_(free, free)]
        h[free] = np.linalg.solve(M, np.ones(len(free)))
    return h


def rational_hitting_times(
    n: int, edges: list[tuple[int, int, float]], B: list[int]
) -> list[Fraction]:
    """E_x[T_B] in exact rational arithmetic (Gauss-Jordan elimination of
    ``-L h = 1`` outside ``B``), free of the rounding of a dense solve
    whose error grows with the spread of the rates."""
    free = [v for v in range(n) if v not in set(B)]
    idx = {v: i for i, v in enumerate(free)}
    m = len(free)
    A = [[Fraction(0)] * m + [Fraction(1)] for _ in range(m)]
    for s, d, w in edges:
        if s in idx:
            A[idx[s]][idx[s]] += Fraction(w)
            if d in idx:
                A[idx[s]][idx[d]] -= Fraction(w)
    for c in range(m):
        pivot = next(r for r in range(c, m) if A[r][c] != 0)
        A[c], A[pivot] = A[pivot], A[c]
        for r in range(m):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    h = [Fraction(0)] * n
    for v, i in idx.items():
        h[v] = A[i][m] / A[i][i]
    return h
