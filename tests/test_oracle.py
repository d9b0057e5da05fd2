"""Frozen-value and contract tests for the determinantal oracle.

The numeric literals here were derived independently (hand calculation and
the enumeration oracle in forest_enum.py) before the implementation was
written.
"""

import math

import numpy as np
import pytest

from forestnets import config, oracle
from forestnets.errors import (
    InvalidParams,
    InvalidStart,
    NotSelfAvoiding,
    NumericalError,
    SingularSystem,
    UnknownEdge,
    ZeroCoefficient,
)
from forestnets.network import build_network, gth_eliminate

import netdefs


# -- Green's function -------------------------------------------------------


def test_green_two_asym(two_asym):
    gk = oracle.green(two_asym, 3.0)
    np.testing.assert_allclose(gk.G, np.array([[4, 2], [1, 5]]) / 18, atol=1e-12)
    np.testing.assert_allclose(
        gk.K, [[2 / 3, 1 / 3], [1 / 6, 5 / 6]], atol=1e-12
    )


def test_green_rows_sum_to_one_without_roots():
    for name, (n, edges) in netdefs.SMALL_GRAPHS.items():
        net = build_network(edges, n)
        for q in (0.3, 1.0, 7.0):
            K = oracle.green(net, q).K
            assert np.abs(K.sum(axis=1) - 1.0).max() <= 1e-10, (name, q)
            assert K.min() >= -1e-12, (name, q)


def test_green_forced_roots_zero_rows(two_asym):
    gk = oracle.green(two_asym, 3.0, B=[1])
    assert gk.G[1, 0] == 0.0 and gk.G[1, 1] == 0.0 and gk.G[0, 1] == 0.0
    # remaining block solves (q Id - L) restricted to {0}: (3+2) g = 1
    assert gk.G[0, 0] == pytest.approx(1 / 5, abs=1e-12)


def test_green_requires_positive_q_or_roots(two_asym):
    with pytest.raises(InvalidParams):
        oracle.green(two_asym, 0.0)
    oracle.green(two_asym, 0.0, B=[0])  # fine
    with pytest.raises(InvalidParams):
        oracle.green(two_asym, -1.0)


def test_green_of_large_rates_is_solved():
    # the residual of the Green solve grows with ||q Id - L||, and so does
    # its check: an absolute 1e-9 refused this grid at q = 1
    q = 1.0
    edges = [(a, b, 1e8 * w) for a, b, w in netdefs.grid_edges(6, 6)]
    net = build_network(edges, 36)
    K = oracle.green(net, q).K
    unit = np.finfo(float).eps * (1.0 + net.w_max / q)
    assert np.abs(K.sum(axis=1) - 1.0).max() <= 64 * unit


def test_green_checks_its_residual(monkeypatch, two_asym):
    monkeypatch.setattr(config, "RESIDUAL_TOL", -1.0)
    with pytest.raises(SingularSystem, match="q Id - L residual"):
        oracle.green(two_asym, 3.0)


def test_checked_lu():
    with pytest.raises(SingularSystem, match="^M is singular"):
        oracle.CheckedLU(np.ones((2, 2)), "M")
    with pytest.raises(SingularSystem, match="^M overflows"):
        oracle.CheckedLU(np.array([[np.inf, 0.0], [0.0, 1.0]]), "M")
    M = np.array([[2.0, -1.0], [-1.0, 2.0]])
    lu = oracle.CheckedLU(M, "M")
    assert lu.norm == 3.0
    rhs = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(lu.solve(rhs), np.linalg.inv(M), atol=1e-15)
    np.testing.assert_allclose(lu.solve(rhs[:, 0]), [2 / 3, 1 / 3], atol=1e-15)


def test_checked_inverses(monkeypatch):
    # the batch is refused as a whole when one of its matrices fails
    good = np.array([[2.0, -1.0], [-1.0, 2.0]])
    np.testing.assert_allclose(
        oracle.checked_inverses(np.stack([good, np.eye(2)]), "M"),
        np.stack([np.linalg.inv(good), np.eye(2)]),
        atol=1e-15,
    )
    with pytest.raises(SingularSystem, match="^M overflows$"):
        oracle.checked_inverses(np.stack([good, [[1e308, 1e308], [0.0, 1.0]]]), "M")
    with pytest.raises(SingularSystem, match="^M is singular \\(zero pivot\\)$"):
        oracle.checked_inverses(np.stack([good, np.ones((2, 2))]), "M")
    monkeypatch.setattr(config, "RESIDUAL_TOL", -1.0)
    with pytest.raises(SingularSystem, match="^M residual "):
        oracle.checked_inverses(good[None], "M")


def test_checked_lu_checks_every_width_on_one_fixed_combination(monkeypatch):
    # the combination is drawn once per width, as default_rng(0) draws it,
    # and every solve still checks its residual on it
    for m in (2, 3, 2):
        v = oracle._check_weights(m)
        assert not v.flags.writeable
        assert v.tobytes() == np.random.default_rng(0).uniform(0.5, 1.5, m).tobytes()
    assert oracle._check_weights(3) is oracle._check_weights(3)
    lu = oracle.CheckedLU(np.array([[2.0, -1.0], [-1.0, 2.0]]), "M")
    lu.solve(np.eye(2))
    monkeypatch.setattr(config, "RESIDUAL_TOL", -1.0)
    for _ in range(2):
        with pytest.raises(SingularSystem, match="^M residual"):
            lu.solve(np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_checked_lu_refuses_non_finite_rhs(bad):
    lu = oracle.CheckedLU(np.array([[2.0, -1.0], [-1.0, 2.0]]), "M")
    for rhs in (np.array([1.0, bad]), np.array([[1.0, 0.0], [bad, 1.0]])):
        with pytest.raises(NumericalError, match="^M: right-hand side is not finite"):
            lu.solve(rhs)


# -- partition function -----------------------------------------------------


def test_partition_fn_two_asym(two_asym):
    assert oracle.partition_fn(two_asym, 3.0) == pytest.approx(18.0, rel=1e-12)


def test_partition_fn_cycle3(cycle3):
    assert oracle.partition_fn(cycle3, 1.0) == pytest.approx(7.0, rel=1e-12)


def test_partition_fn_full_root_set(two_asym):
    assert oracle.partition_fn(two_asym, 3.0, B=[0, 1]) == 1.0


def test_partition_fn_eigenvalue_product(two_asym):
    # eigenvalues of -L are 0 and 3, so Z(q) = q (q + 3)
    for q in (0.5, 1.0, 3.0, 10.0):
        assert oracle.partition_fn(two_asym, q) == pytest.approx(
            q * (q + 3.0), rel=1e-12
        )


@pytest.mark.parametrize(
    "q,B", [(-1.0, [0]), (math.nan, []), (math.inf, [0]), (0.0, [])]
)
def test_partition_fn_checks_q(two_asym, q, B):
    # the q rule of every other oracle: slogdet returned a value for q < 0
    with pytest.raises(InvalidParams):
        oracle.partition_fn(two_asym, q, B)


# -- inclusion probabilities ------------------------------------------------


def test_root_inclusion_two_asym(two_asym):
    assert oracle.root_inclusion_prob(two_asym, 3.0, [0]) == pytest.approx(2 / 3)
    assert oracle.root_inclusion_prob(two_asym, 3.0, [1]) == pytest.approx(5 / 6)
    assert oracle.root_inclusion_prob(two_asym, 3.0, [0, 1]) == pytest.approx(0.5)


def test_root_inclusion_forced_roots_count_as_sure(two_asym):
    assert oracle.root_inclusion_prob(two_asym, 3.0, [1], B=[1]) == 1.0
    assert oracle.root_inclusion_prob(two_asym, 3.0, [], B=[1]) == 1.0
    # root sets are read once, so generators work
    assert oracle.root_inclusion_prob(
        two_asym, 3.0, (v for v in [1]), B=(v for v in [1])
    ) == 1.0


def test_vertex_sets_validated(two_asym):
    with pytest.raises(InvalidParams):
        oracle.root_inclusion_prob(two_asym, 3.0, [0, 0])
    with pytest.raises(InvalidParams):
        oracle.root_inclusion_prob(two_asym, 3.0, [2])
    with pytest.raises(InvalidParams):
        oracle.green(two_asym, 3.0, B=[1, 1])
    with pytest.raises(InvalidParams):
        oracle.green(two_asym, 3.0, B=[-1])


def test_edge_inclusion_two_asym(two_asym):
    assert oracle.edge_inclusion_prob(two_asym, 3.0, [(0, 1)]) == pytest.approx(
        1 / 3
    )
    assert oracle.edge_inclusion_prob(two_asym, 3.0, [(1, 0)]) == pytest.approx(
        1 / 6
    )
    # two opposite edges would close a cycle: probability zero
    assert oracle.edge_inclusion_prob(
        two_asym, 3.0, [(0, 1), (1, 0)]
    ) == pytest.approx(0.0, abs=1e-12)


def test_edge_inclusion_signed_orientation(path3):
    # on the undirected path, seeing 0-1 in either orientation is the
    # complement of both endpoints being isolated from each other
    q = 1.0
    either = oracle.edge_inclusion_prob(path3, q, [(0, 1)], signed=True)
    forward = oracle.edge_inclusion_prob(path3, q, [(0, 1)])
    backward = oracle.edge_inclusion_prob(path3, q, [(1, 0)])
    assert either == pytest.approx(forward + backward, abs=1e-12)


def test_edge_inclusion_unknown_edge(two_asym):
    with pytest.raises(UnknownEdge):
        oracle.edge_inclusion_prob(two_asym, 3.0, [(0, 0)])


@pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (0, 2), (2, 0)])
@pytest.mark.parametrize("signed", [False, True])
def test_edge_ids_outside_network_are_unknown(two_asym, edge, signed):
    # (-1, 0) would read L[1, 0] > 0 if the id wrapped around
    with pytest.raises(UnknownEdge):
        oracle.edge_inclusion_prob(two_asym, 3.0, [edge], signed=signed)
    with pytest.raises(UnknownEdge):
        oracle.transfer_current(two_asym, 3.0, [edge], signed=signed)


@pytest.mark.parametrize("edge", [(0.9, 1), (0, 1.5), (math.nan, 1), (0, math.inf)])
@pytest.mark.parametrize("signed", [False, True])
def test_edge_ids_must_be_integers(two_asym, edge, signed):
    # (0.9, 1) used to be truncated to the edge (0, 1)
    with pytest.raises(InvalidParams, match="of edge event is not an integer"):
        oracle.edge_inclusion_prob(two_asym, 3.0, [edge], signed=signed)
    with pytest.raises(InvalidParams, match="of edge event is not an integer"):
        oracle.transfer_current(two_asym, 3.0, [edge], signed=signed)


def test_integral_edge_ids_of_any_type(two_asym):
    # a guard: integral numbers of any type stay ids
    want = oracle.edge_inclusion_prob(two_asym, 3.0, [(0, 1)])
    for edge in [(0.0, 1.0), (np.int64(0), np.float64(1.0))]:
        assert oracle.edge_inclusion_prob(two_asym, 3.0, [edge]) == want


def test_root_vertex_has_no_outgoing_edge(two_asym):
    # an edge out of a forced root never appears
    assert oracle.edge_inclusion_prob(
        two_asym, 3.0, [(0, 1)], B=[0]
    ) == pytest.approx(0.0, abs=1e-12)


# -- root count law ---------------------------------------------------------


def test_root_count_law_two_asym(two_asym):
    law = oracle.root_count_law(two_asym, 3.0)
    d = law.as_dict()
    assert d[1] == pytest.approx(0.5, abs=1e-12)
    assert d[2] == pytest.approx(0.5, abs=1e-12)
    assert d.get(0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert law.mean == pytest.approx(1.5, abs=1e-12)
    assert law.variance == pytest.approx(0.25, abs=1e-12)


def test_root_count_law_cycle3_complex_pair(cycle3):
    # spectrum of -L is {0, 3/2 +- i sqrt(3)/2}: one forced Bernoulli(1)
    # and one conjugate-pair variable
    law = oracle.root_count_law(cycle3, 1.0)
    d = law.as_dict()
    assert d[1] == pytest.approx(3 / 7, abs=1e-9)
    assert d[2] == pytest.approx(3 / 7, abs=1e-9)
    assert d[3] == pytest.approx(1 / 7, abs=1e-9)


def test_root_count_moments_match_pmf():
    for name, (n, edges) in netdefs.SMALL_GRAPHS.items():
        net = build_network(edges, n)
        for q in (0.5, 2.0):
            law = oracle.root_count_law(net, q)
            mean_pmf = float((law.counts * law.pmf).sum())
            var_pmf = float(((law.counts - mean_pmf) ** 2 * law.pmf).sum())
            assert law.mean == pytest.approx(mean_pmf, abs=1e-9), name
            assert law.variance == pytest.approx(var_pmf, abs=1e-9), name


def test_root_count_variance_at_most_twice_mean():
    for name, (n, edges) in netdefs.SMALL_GRAPHS.items():
        net = build_network(edges, n)
        for q in (0.1, 1.0, 10.0):
            mean, var = oracle.root_count_moments(net, q)
            assert var <= 2.0 * mean + 1e-12, (name, q)


def test_root_count_with_forced_roots(two_asym):
    law = oracle.root_count_law(two_asym, 3.0, B=[1])
    d = law.as_dict()
    # remaining spectrum is {2} (rate out of vertex 0): Bernoulli(3/5)
    assert d[1] == pytest.approx(2 / 5, abs=1e-12)
    assert d[2] == pytest.approx(3 / 5, abs=1e-12)


# -- loop-erased walk path law ----------------------------------------------


def test_lerw_two_asym(two_asym):
    assert oracle.lerw_path_prob(two_asym, 3.0, [0]) == pytest.approx(2 / 3)
    assert oracle.lerw_path_prob(two_asym, 3.0, [0, 1]) == pytest.approx(1 / 3)
    assert oracle.lerw_path_prob(two_asym, 3.0, [0, 1], B=[1]) == pytest.approx(
        2 / 5
    )


def test_lerw_validation(two_asym):
    with pytest.raises(NotSelfAvoiding):
        oracle.lerw_path_prob(two_asym, 3.0, [0, 1, 0])
    with pytest.raises(InvalidStart):
        oracle.lerw_path_prob(two_asym, 3.0, [1], B=[1])
    with pytest.raises(InvalidParams):
        oracle.lerw_path_prob(two_asym, 3.0, [])


@pytest.mark.parametrize("path", [[0.7], [0, 1.5], [math.nan], [0, math.inf]])
def test_lerw_path_ids_must_be_integers(two_asym, path):
    # [0.7] used to be read as [0]
    with pytest.raises(InvalidParams, match="of path is not an integer"):
        oracle.lerw_path_prob(two_asym, 3.0, path)


def test_lerw_path_takes_integral_numbers(two_asym):
    # a guard: integral numbers of any type stay ids
    want = oracle.lerw_path_prob(two_asym, 3.0, [0, 1])
    assert oracle.lerw_path_prob(two_asym, 3.0, [0.0, np.int64(1)]) == want


def test_lerw_missing_edge_probability_zero(path3):
    # 0 -> 2 is not an edge on the path graph
    assert oracle.lerw_path_prob(path3, 1.0, [0, 2]) == 0.0


def test_lerw_path_law_at_large_rates():
    # the path weight (1e400) overflowed and the determinant ratio
    # underflowed, so the product was nan; in logs they cancel.  The walk
    # mixes long before it is killed, so it dies at 2 with probability
    # 1/4, and by symmetry its loop erasure then runs through 1 or 3.
    net = build_network(netdefs.cycle_edges(4, 1e200), 4)
    assert oracle.lerw_path_prob(net, 1.0, [0, 1, 2]) == pytest.approx(0.125, rel=1e-12)
    paths = [[0], [0, 1], [0, 3], [0, 1, 2], [0, 3, 2], [0, 1, 2, 3], [0, 3, 2, 1]]
    total = math.fsum(oracle.lerw_path_prob(net, 1.0, p) for p in paths)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_determinant_ratios_leave_a_reversible_grid_without_dense_l():
    # a reversible network's measure comes from its tree, so L is formed
    # only when read; the partition function and the removal ratios cut
    # their blocks from the edges, with the dense formula's bits
    side = 12
    rng = np.random.default_rng(side)
    pairs = [(x, y) for x, y, _ in netdefs.grid_edges(side, side)[::2]]
    w = rng.uniform(0.5, 2.0, len(pairs))
    edges = [(x, y, c) for (x, y), c in zip(pairs, w)]
    net = build_network(edges + [(y, x, c) for (x, y), c in zip(pairs, w)], side**2)
    B = [0, 5, 77]
    z, z_b = oracle.partition_fn(net, 0.3), oracle.partition_fn(net, 0.3, B)
    p = oracle.root_inclusion_prob(net, 0.3, [1, 40], B)
    assert net.reversible and "L" not in vars(net)

    def log_z(forbidden):
        free = np.setdiff1d(np.arange(net.n), forbidden)
        r = np.pad(net.L[np.ix_(free, free)], (1, 0))
        r[1:, 0] = 0.3 + net.L[np.ix_(free, forbidden)].sum(axis=1)
        return float(sum(np.log(np.diag(up)).sum() for *_, up in gth_eliminate(r)))

    none = np.array([], dtype=np.int64)
    assert z == math.exp(log_z(none))
    assert z_b == math.exp(log_z(np.array(B)))
    log_w = 2 * math.log(0.3)
    assert p == math.exp(log_w + log_z(np.array(B + [1, 40])) - log_z(np.array(B)))


# -- hitting times ----------------------------------------------------------


def test_hitting_times_two_asym(two_asym):
    np.testing.assert_allclose(
        oracle.hitting_times(two_asym, [1]), [0.5, 0.0], atol=1e-12
    )


def test_hitting_times_path3(path3):
    np.testing.assert_allclose(
        oracle.hitting_times(path3, [0]), [0.0, 2.0, 3.0], atol=1e-10
    )


def test_hitting_times_need_target(two_asym):
    with pytest.raises(InvalidParams):
        oracle.hitting_times(two_asym, [])


# -- mean time to reach the random roots -------------------------------------


def test_mean_root_hitting_two_asym(two_asym):
    assert oracle.mean_root_hitting(two_asym, 3.0) == pytest.approx(1 / 6)


def test_mean_root_hitting_cycle3(cycle3):
    # complex spectrum: (1/q)(1 - prod lam/(q+lam)) = 1 - 3/7 = 4/7 at q=1
    assert oracle.mean_root_hitting(cycle3, 1.0) == pytest.approx(4 / 7)


def test_mean_root_hitting_conditional_two_asym(two_asym):
    # det(x Id - L) = x^2 + 3x: a_1 = 3, a_2 = 1, a_3 = 0
    assert oracle.mean_root_hitting_conditional(two_asym, 1) == pytest.approx(
        1 / 3
    )
    assert oracle.mean_root_hitting_conditional(two_asym, 2) == 0.0
    with pytest.raises(InvalidParams):
        oracle.mean_root_hitting_conditional(two_asym, 0)


def test_charpoly_coeffs_two_asym(two_asym):
    a = oracle.charpoly_root_coeffs(two_asym)
    np.testing.assert_allclose(a, [0.0, 3.0, 1.0], atol=1e-12)
