"""Dual-route checks: every determinantal formula against brute-force
enumeration of all rooted spanning forests (and all self-avoiding paths)."""

import functools
import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestnets import oracle
from forestnets.network import build_network

import forest_enum as fe
import netdefs


CASES = [(name,) + qb for name in sorted(netdefs.SMALL_GRAPHS)
         for qb in [(1.0, ()), (3.0, ()), (0.7, (0,))]]


@pytest.mark.parametrize("name,q,B", CASES)
def test_partition_fn_matches_enumeration(name, q, B):
    n, edges = netdefs.SMALL_GRAPHS[name]
    net = build_network(edges, n)
    z_det = oracle.partition_fn(net, q, B)
    z_enum = fe.partition_function(n, edges, q, B)
    assert z_det == pytest.approx(z_enum, rel=1e-9)


@pytest.mark.parametrize("name,q,B", CASES)
def test_root_inclusion_matches_enumeration(name, q, B):
    n, edges = netdefs.SMALL_GRAPHS[name]
    net = build_network(edges, n)
    law = fe.forest_law(n, edges, q, B)
    for size in (1, 2):
        for A in itertools.combinations(range(n), size):
            got = oracle.root_inclusion_prob(net, q, A, B)
            want = fe.root_inclusion(law, A)
            assert got == pytest.approx(want, abs=1e-9), A


@pytest.mark.parametrize("name,q,B", CASES)
def test_edge_inclusion_matches_enumeration(name, q, B):
    n, edges = netdefs.SMALL_GRAPHS[name]
    net = build_network(edges, n)
    law = fe.forest_law(n, edges, q, B)
    oriented = [(s, d) for s, d, _ in edges]
    for e in oriented:
        got = oracle.edge_inclusion_prob(net, q, [e], B)
        assert got == pytest.approx(fe.edge_inclusion(law, [e]), abs=1e-9), e
    for pair in itertools.combinations(oriented, 2):
        got = oracle.edge_inclusion_prob(net, q, list(pair), B)
        want = fe.edge_inclusion(law, list(pair))
        assert got == pytest.approx(want, abs=1e-9), pair


@pytest.mark.parametrize("name,q,B", CASES)
def test_signed_edge_inclusion_matches_enumeration(name, q, B):
    n, edges = netdefs.SMALL_GRAPHS[name]
    net = build_network(edges, n)
    law = fe.forest_law(n, edges, q, B)
    oriented = sorted({frozenset((s, d)) for s, d, _ in edges})
    for fs in oriented:
        e = tuple(sorted(fs))
        got = oracle.edge_inclusion_prob(net, q, [e], B, signed=True)
        want = fe.edge_inclusion(law, [e], either_orientation=True)
        assert got == pytest.approx(want, abs=1e-9), e


@pytest.mark.parametrize("name,q,B", CASES)
def test_root_count_pmf_matches_enumeration(name, q, B):
    n, edges = netdefs.SMALL_GRAPHS[name]
    net = build_network(edges, n)
    law = oracle.root_count_law(net, q, B)
    want = fe.root_count_pmf(fe.forest_law(n, edges, q, B))
    for k, p in law.as_dict().items():
        assert p == pytest.approx(want.get(k, 0.0), abs=1e-9), k


@pytest.mark.parametrize("name", sorted(netdefs.SMALL_GRAPHS))
def test_negative_root_correlation(name):
    # determinantal repulsion: P(x and y roots) <= P(x root) P(y root)
    n, edges = netdefs.SMALL_GRAPHS[name]
    net = build_network(edges, n)
    for q in (0.5, 2.0):
        for x, y in itertools.combinations(range(n), 2):
            joint = oracle.root_inclusion_prob(net, q, [x, y])
            prod = oracle.root_inclusion_prob(
                net, q, [x]
            ) * oracle.root_inclusion_prob(net, q, [y])
            assert joint <= prod + 1e-12, (q, x, y)


@pytest.mark.parametrize(
    "name", ["two_asym", "cycle3", "path3", "tri_asym", "star4"]
)
def test_lerw_path_law_sums_to_one(name):
    n, edges = netdefs.SMALL_GRAPHS[name]
    net = build_network(edges, n)
    for q, B in [(1.0, ()), (3.0, ()), (0.5, (0,))]:
        for x in [v for v in range(n) if v not in B][:2]:
            total = 0.0
            for path in fe.all_self_avoiding_paths(n, x):
                if any(v in B for v in path[1:-1]):
                    continue
                total += oracle.lerw_path_prob(net, q, list(path), B)
            assert total == pytest.approx(1.0, abs=1e-9), (q, B, x)


@pytest.mark.parametrize("name", sorted(netdefs.SMALL_GRAPHS))
def test_mean_root_hitting_matches_enumeration(name):
    n, edges = netdefs.SMALL_GRAPHS[name]
    net = build_network(edges, n)
    ht = lambda B: fe.exact_hitting_times(n, edges, B)
    for q in (0.5, 1.0, 3.0):
        want_formula = oracle.mean_root_hitting(net, q)
        law = fe.forest_law(n, edges, q)
        for x in range(n):
            want_enum = fe.mean_hitting_of_roots(law, ht, x)
            assert want_formula == pytest.approx(want_enum, abs=1e-9), (q, x)


@pytest.mark.parametrize("name", sorted(netdefs.SMALL_GRAPHS))
def test_conditional_mean_hitting_matches_enumeration(name):
    n, edges = netdefs.SMALL_GRAPHS[name]
    net = build_network(edges, n)
    ht = lambda B: fe.exact_hitting_times(n, edges, B)
    q = 1.3  # the conditional value must not depend on q
    law = fe.forest_law(n, edges, q)
    for m in range(1, n + 1):
        sub = {phi: p for phi, p in law.items() if len(phi.roots) == m}
        mass = sum(sub.values())
        if mass < 1e-12:
            continue
        got = oracle.mean_root_hitting_conditional(net, m)
        for x in range(n):
            want = sum(p * ht(list(phi.roots))[x] for phi, p in sub.items())
            assert got == pytest.approx(want / mass, abs=1e-9), (m, x)


def test_charpoly_coeffs_count_forest_weights():
    # a_k equals the total forest weight with exactly k roots
    for name, (n, edges) in sorted(netdefs.SMALL_GRAPHS.items()):
        net = build_network(edges, n)
        a = oracle.charpoly_root_coeffs(net)
        by_roots = {}
        for phi in fe.all_spanning_forests(n, edges):
            k = len(phi.roots)
            by_roots[k] = by_roots.get(k, 0.0) + phi.weight
        for k in range(n + 1):
            assert a[k] == pytest.approx(by_roots.get(k, 0.0), abs=1e-9), (
                name,
                k,
            )


# ---------------------------------------------------------------------------
# random digraphs


@settings(max_examples=150, deadline=None)
@given(
    case=netdefs.digraphs(min_n=2, max_n=5),
    decades=st.floats(0.0, 8.0),
    q=st.floats(1e-2, 1e2),
)
def test_root_inclusion_matches_enumeration_at_any_scale(case, decades, q):
    # the error of the Green solve grows as eps * cond(q Id - L), about
    # eps * (1 + w_max/q); a residual check that grows with ||q Id - L||
    # solves large rates instead of refusing them.  64 units leave room
    # for the 5 x 5 LU and for the enumeration's own rounding.
    edges, n = case
    edges = [(a, b, w * 10.0**decades) for a, b, w in edges]
    net = build_network(edges, n)
    law = fe.forest_law(n, edges, q)
    unit = np.finfo(float).eps * (1.0 + net.w_max / q)
    for v in range(n):
        got = oracle.root_inclusion_prob(net, q, [v])
        assert abs(got - fe.root_inclusion(law, (v,))) <= 64 * unit, v


@settings(max_examples=100, deadline=None)
@given(case=netdefs.digraphs(min_n=2, max_n=5), q=st.floats(1e-2, 1e2))
def test_root_count_law_matches_enumeration_on_random_digraphs(case, q):
    # a guard at unit scale; test_spectral_laws_match_enumeration_at_any_scale
    # checks the law at rates up to 1e8
    edges, n = case
    law = oracle.root_count_law(build_network(edges, n), q)
    want = fe.root_count_pmf(fe.forest_law(n, edges, q))
    assert law.pmf.sum() == pytest.approx(1.0, abs=1e-9)
    for k in range(n + 1):
        got = law.as_dict().get(k, 0.0)
        assert got == pytest.approx(want.get(k, 0.0), abs=1e-9), k


@settings(max_examples=150, deadline=None)
@given(
    case=netdefs.digraphs(min_n=2, max_n=5),
    decades=st.floats(0.0, 8.0),
    q=st.floats(1e-2, 1e2),
)
def test_spectral_laws_match_enumeration_at_any_scale(case, decades, q):
    # with no forced root the zero eigenvalue of -L is one certain root and
    # never enters the formulas; each other eigenvalue is still off by
    # about eps ||L||, which moves q / (q + lam) by about eps * w_max / q.
    # So the laws get 64 units of eps * (1 + w_max/q), as root inclusion
    # does.  The coefficients do not depend on q: their unit has
    # a_2 / a_1 = sum_j 1/lam_j, the mean time to reach a single random
    # root, in place of 1/q.
    edges, n = case
    edges = [(a, b, w * 10.0**decades) for a, b, w in edges]
    net = build_network(edges, n)
    law = fe.forest_law(n, edges, q)
    want = fe.root_count_pmf(law)
    eps = np.finfo(float).eps
    unit = eps * (1.0 + net.w_max / q)

    got = oracle.root_count_law(net, q)
    assert got.counts[0] == 0 and got.pmf[0] == 0.0
    for k in range(n + 1):
        assert abs(got.pmf[k] - want.get(k, 0.0)) <= 64 * unit, k
    mean = sum(k * p for k, p in want.items())
    assert oracle.root_count_moments(net, q)[0] == pytest.approx(mean, rel=64 * unit)

    exact = functools.cache(lambda B: fe.rational_hitting_times(n, edges, list(B)))
    mrh = oracle.mean_root_hitting(net, q)
    for x in range(n):
        ref = fe.mean_hitting_of_roots(law, lambda B: exact(tuple(B)), x)
        assert mrh == pytest.approx(ref, rel=64 * unit), x

    a = [0.0] * (n + 1)
    for phi in fe.all_spanning_forests(n, edges):
        a[len(phi.roots)] += phi.weight
    unit_a = eps * (1.0 + net.w_max * a[2] / a[1])
    got_a = oracle.charpoly_root_coeffs(net)
    assert got_a[0] == 0.0
    assert np.abs(got_a - a).max() <= 64 * unit_a * max(a)


@settings(max_examples=100, deadline=None)
@given(
    case=netdefs.digraphs(min_n=2, max_n=5),
    decades=st.floats(0.0, 8.0),
    q=st.floats(1e-2, 1e2),
    forced=st.booleans(),
)
def test_determinants_match_exact_enumeration_at_any_scale(case, decades, q, forced):
    # the GTH pivots never subtract, so the partition function, the
    # loop-erased path law and root inclusion, all ratios of its
    # determinants, hold to a few ulps at any rate scale; an LU determinant
    # lost about eps * cond(q Id - L), up to 4.5e-7 relative, and root
    # inclusion read from the inverse up to 1.35e-6.  The reference is
    # exact: rational forest weights, for each path the forests whose path
    # from its start is that path, and for each root event the forests
    # whose roots contain it.
    edges, n = case
    edges = [(a, b, w * 10.0**decades) for a, b, w in edges]
    net = build_network(edges, n)
    B = (n - 1,) if forced else ()
    rate = {(a, b): Fraction(w) for a, b, w in edges}
    z = Fraction(0)
    by_path = defaultdict(Fraction)
    by_roots = defaultdict(Fraction)
    for phi in fe.all_spanning_forests(n, edges):
        if not set(B) <= set(phi.roots):
            continue
        mass = Fraction(q) ** (len(phi.roots) - len(B))
        for e in phi.edges:
            mass *= rate[e]
        z += mass
        for x in range(n):
            path = [x]
            while phi.parent[path[-1]] != -1:
                path.append(phi.parent[path[-1]])
            by_path[tuple(path)] += mass
        for size in (1, 2):
            for A in itertools.combinations(sorted(phi.roots), size):
                by_roots[A] += mass
    assert oracle.partition_fn(net, q, B) == pytest.approx(float(z), rel=1e-13)
    for size in (1, 2):
        for A in itertools.combinations(range(n), size):
            got = oracle.root_inclusion_prob(net, q, list(A), B)
            assert got == pytest.approx(float(by_roots[A] / z), rel=1e-13), A
    for x in set(range(n)) - set(B):
        for path in fe.all_self_avoiding_paths(n, x):
            if any(v in B for v in path[1:-1]):
                continue
            got = oracle.lerw_path_prob(net, q, list(path), B)
            assert got == pytest.approx(float(by_path[path] / z), rel=1e-13), path
