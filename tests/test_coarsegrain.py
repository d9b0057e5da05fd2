"""Coarse-graining: Schur reduction, link operators, quality functionals."""

import itertools
import math
import types

import numpy as np
import pytest
import scipy.linalg

from forestnets import coarsegrain as cg
from forestnets import oracle
from forestnets.errors import (
    EmptyBlock,
    InvalidParams,
    NumericalError,
    SingularSystem,
    ZeroProbability,
)
from forestnets.network import build_network, skeleton
from forestnets.norms import condition_measure

from netdefs import SMALL_GRAPHS, cycle_edges

ALL_NETS = {name: build_network(e, n) for name, (n, e) in SMALL_GRAPHS.items()}


def keep_choices(n):
    """A few representative kept sets for an n-vertex network."""
    out = [(0,), tuple(range(n))]
    if n >= 3:
        out.append((0, n - 1))
    if n >= 4:
        out.append((1, 2, 3))
    return out


# ---------------------------------------------------------------------------
# Schur reduction


def test_schur_path3_golden(path3):
    red = cg.schur_reduce(path3, [0, 2])
    assert np.allclose(red.L, [[-0.5, 0.5], [0.5, -0.5]])
    assert list(red.kept) == [0, 2]
    assert np.allclose(red.mu, [0.5, 0.5])


def test_schur_keep_all_is_identity(path3):
    red = cg.schur_reduce(path3, [0, 1, 2])
    assert np.allclose(red.L, path3.L)


def test_schur_transitivity(path5):
    once = cg.schur_reduce(path5, [0, 4])
    staged = cg.schur_reduce(
        cg.schur_reduce(path5, [0, 2, 4]).network, [0, 2]
    )
    assert np.abs(once.L - staged.L).max() < 1e-12


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_schur_is_generator_with_conditioned_measure(name):
    net = ALL_NETS[name]
    for keep in keep_choices(net.n):
        red = cg.schur_reduce(net, keep)
        assert np.abs(red.L.sum(axis=1)).max() < 1e-12
        off = red.L - np.diag(np.diag(red.L))
        assert off.min() >= 0.0
        want = condition_measure(net.mu, list(keep))
        assert np.abs(red.network.mu - want).max() < 1e-10


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_reduced_network_takes_conditioned_measure(name):
    # mu(. | kept) is checked against the reduced rates, then taken as the
    # reduced network's measure instead of solving for one
    net = ALL_NETS[name]
    for keep in keep_choices(net.n):
        red = cg.schur_reduce(net, keep)
        assert np.array_equal(red.network.mu, condition_measure(net.mu, red.kept))
        resid = np.abs(red.network.mu @ red.L).max()
        assert resid <= 1e-12 * max(1.0, red.network.w_max)


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_schur_matches_skeleton_trace(name):
    # independent route: the discrete skeleton watched on the kept set has
    # transition matrix Id + Lbar / w_max of the *parent* network
    net = ALL_NETS[name]
    P = skeleton(net)
    for keep in keep_choices(net.n):
        kept = np.asarray(keep)
        drop = np.setdiff1d(np.arange(net.n), kept)
        if drop.size == 0:
            continue
        A = P[np.ix_(kept, kept)]
        B = P[np.ix_(kept, drop)]
        C = P[np.ix_(drop, kept)]
        D = P[np.ix_(drop, drop)]
        trace = A + B @ np.linalg.solve(np.eye(drop.size) - D, C)
        red = cg.schur_reduce(net, keep)
        assert np.abs(trace - (np.eye(kept.size) + red.L / net.w_max)).max() < 1e-12


def test_schur_keep_validation(path3):
    with pytest.raises(InvalidParams):
        cg.schur_reduce(path3, [])
    with pytest.raises(InvalidParams):
        cg.schur_reduce(path3, [0, 3])
    with pytest.raises(InvalidParams):
        cg.schur_reduce(path3, [0, 0])
    # the kept set is read once, so a generator works
    red = cg.schur_reduce(path3, (v for v in [2, 0]))
    assert red.kept.tolist() == [0, 2]


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_solve_dropped_factors_once(monkeypatch, name):
    net = ALL_NETS[name]
    factored = []
    real = scipy.linalg.lu_factor
    monkeypatch.setattr(
        scipy.linalg, "lu_factor", lambda A: factored.append(A.shape) or real(A)
    )
    for keep in keep_choices(net.n):
        red = cg.ReducedNetwork(net, keep)
        d = red.dropped
        if d.size == 0:
            continue
        factored.clear()
        A = -net.L[np.ix_(d, d)]
        rhs = np.column_stack([np.ones(d.size), np.arange(d.size, dtype=float)])
        assert np.abs(red.solve_dropped(rhs) - np.linalg.solve(A, rhs)).max() < 1e-12
        x = red.solve_dropped(rhs[:, 1])
        assert np.abs(A @ x - rhs[:, 1]).max() < 1e-12
        assert factored == [(d.size, d.size)]


def test_singular_dropped_block_raises(path3):
    # lu_factor only warns on a singular matrix; the reduction raises
    red = cg.ReducedNetwork(path3, [0])
    singular = build_network([(0, 1, 1.0), (1, 0, 1.0)], 2).L
    red.parent = types.SimpleNamespace(n=3, L=np.pad(singular, ((1, 0), (1, 0))))
    with pytest.raises(SingularSystem):
        red.solve_dropped(np.ones(2))


# ---------------------------------------------------------------------------
# link operators


def test_partition_link_rows(two_asym, path3):
    assert np.allclose(cg.partition_link(two_asym, [[0], [1]]), np.eye(2))
    link = cg.partition_link(path3, [[0], [1, 2]])
    assert np.allclose(link, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])


def test_partition_link_validation(path3):
    with pytest.raises(EmptyBlock):
        cg.partition_link(path3, [[0, 1, 2], []])
    with pytest.raises(InvalidParams):
        cg.partition_link(path3, [[0, 1], [1, 2]])
    with pytest.raises(EmptyBlock):
        cg.partition_link(path3, [[0], [1]])


@pytest.mark.parametrize(
    "blocks", [[[0.5], [1, 2]], [[0], [1, 2.5]], [[0, math.nan], [1, 2]]]
)
def test_partition_ids_must_be_integers(path3, blocks):
    # [[0.5], [1, 2]] used to be read as [[0], [1, 2]]
    for reader in (
        lambda: cg.partition_link(path3, blocks),
        lambda: cg.metastable_kernel(path3, blocks, 1.0),
        lambda: cg.intertwining_error_tv(path3, blocks, 1.0),
    ):
        with pytest.raises(InvalidParams, match="of partition is not an integer"):
            reader()


def test_partition_takes_integral_numbers(path3):
    # a guard: integral numbers of any type stay ids
    want = cg.metastable_kernel(path3, [[0], [1, 2]], 1.0)
    got = cg.metastable_kernel(path3, [[0.0], [np.int64(2), 1.0]], 1.0)
    assert np.array_equal(got, want)


def test_kernel_link_rows_are_killed_kernel(two_asym):
    link = cg.kernel_link(two_asym, [0], 3.0)
    assert np.allclose(link, [[2.0 / 3.0, 1.0 / 3.0]])
    full = cg.kernel_link(two_asym, [0, 1], 3.0)
    assert np.allclose(full, oracle.green(two_asym, 3.0).K)
    with pytest.raises(InvalidParams):
        cg.kernel_link(two_asym, [0], 0.0)


def test_metastable_kernel_golden(path3):
    Pbar = cg.metastable_kernel(path3, [[0], [1, 2]], 1.0)
    assert np.allclose(Pbar, [[5 / 8, 3 / 8], [3 / 16, 13 / 16]])


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_metastable_kernel_is_stochastic(name):
    net = ALL_NETS[name]
    blocks = [[0], list(range(1, net.n))] if net.n > 1 else [[0]]
    for qp in (0.5, 2.0):
        Pbar = cg.metastable_kernel(net, blocks, qp)
        assert Pbar.min() >= 0.0
        assert np.abs(Pbar.sum(axis=1) - 1.0).max() < 1e-10


def test_intertwining_tv_golden(path3):
    err = cg.intertwining_error_tv(path3, [[0], [1, 2]], 1.0)
    assert np.allclose(err, [1 / 16, 1 / 32])


def test_intertwining_tv_singletons_exact(path3):
    err = cg.intertwining_error_tv(path3, [[0], [1], [2]], 0.7)
    assert np.abs(err).max() < 1e-14


def test_intertwining_tv_builds_its_link_and_kernel_once(monkeypatch, path3):
    calls = {"green": 0, "partition_link": 0}
    for mod, name in ((oracle, "green"), (cg, "partition_link")):
        real = getattr(mod, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mod, name, counted)
    cg.intertwining_error_tv(path3, [[0], [1, 2]], 1.0)
    assert calls == {"green": 1, "partition_link": 1}


# ---------------------------------------------------------------------------
# TV product bound


def test_tv_meta_bound_limit_exponents(two_asym):
    # p = 1 keeps only the exact mean root count
    b1 = cg.tv_meta_bound(two_asym, 1.0, 1.0, 1.0, n_walks=16, seed=5)
    mean_roots, _ = oracle.root_count_moments(two_asym, 1.0)
    assert b1 == pytest.approx(mean_roots)
    assert mean_roots == pytest.approx(1.25)
    # p = inf keeps only the walk-length sum; Hoelder consistency at p = 2
    binf = cg.tv_meta_bound(two_asym, 1.0, 1.0, math.inf, n_walks=16, seed=5)
    b2 = cg.tv_meta_bound(two_asym, 1.0, 1.0, 2.0, n_walks=16, seed=5)
    assert b2**2 == pytest.approx(b1 * binf)


def test_tv_meta_bound_validation(two_asym):
    with pytest.raises(InvalidParams):
        cg.tv_meta_bound(two_asym, 1.0, 1.0, 0.5, seed=1)
    with pytest.raises(InvalidParams):
        cg.tv_meta_bound(two_asym, 0.0, 1.0, 2.0, seed=1)


# ---------------------------------------------------------------------------
# Gram matrix and squeezing


def test_gram_partition_golden(two_asym):
    link = cg.partition_link(two_asym, [[0], [1]])
    assert np.allclose(cg.gram(link, two_asym.mu), [[3.0, 0.0], [0.0, 1.5]])
    res = cg.squeezing(link, two_asym.mu)
    assert not res.singular
    assert res.value == pytest.approx(1.0)


def test_gram_kernel_golden(two_asym):
    link = cg.kernel_link(two_asym, [0], 3.0)
    assert np.allclose(cg.gram(link, two_asym.mu), [[1.5]])
    res = cg.squeezing(link, two_asym.mu)
    assert res.value == pytest.approx(math.sqrt(2.0 / 3.0))


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_partition_squeezing_is_one(name):
    # conditioned rows have 1/mu-norm exactly 1/mu(block), so the Gram
    # matrix is diag(1/mu(block)) and the squeezing collapses to 1
    net = ALL_NETS[name]
    if net.n < 2:
        return
    blocks = [[0], list(range(1, net.n))]
    link = cg.partition_link(net, blocks)
    res = cg.squeezing(link, net.mu)
    assert res.value == pytest.approx(1.0)


def test_squeezing_singular_flag(two_asym):
    row = cg.kernel_link(two_asym, [0], 3.0)
    res = cg.squeezing(np.vstack([row, row]), two_asym.mu)
    assert res.singular
    assert math.isinf(res.value)


def test_gram_validation(two_asym):
    with pytest.raises(InvalidParams):
        cg.gram(np.eye(3), two_asym.mu)
    with pytest.raises(InvalidParams):
        cg.gram(np.eye(2), [0.5, 0.0])


def test_spectral_bound_golden(two_asym):
    got = cg.squeezing_spectral_bound(two_asym, 3.0, 3.0, 1)
    assert got == pytest.approx(math.sqrt(2.0) * math.exp(9.0 / 32.0) * 2.0)


def test_spectral_bound_dominates_sampled_squeezing(two_asym):
    # direct check of what the bound promises: E[squeezing | m roots]
    # over the exact two-point forest law at q = 3 (roots {0}, {1}, or
    # {0,1} with known probabilities)
    q = 3.0
    vals = {}
    for keep in ([0], [1]):
        link = cg.kernel_link(two_asym, keep, q)
        vals[tuple(keep)] = cg.squeezing(link, two_asym.mu).value
    # P(R = {0}) = 1/3, P(R = {1}) = 1/6, P(|R| = 1) = 1/2
    expected = (vals[(0,)] * (1 / 3) + vals[(1,)] * (1 / 6)) / 0.5
    bound = cg.squeezing_spectral_bound(two_asym, q, q, 1)
    assert expected <= bound


def test_spectral_bound_validation(two_asym, cycle3):
    with pytest.raises(InvalidParams):
        cg.squeezing_spectral_bound(two_asym, 3.0, 3.0, 0)
    with pytest.raises(InvalidParams):
        cg.squeezing_spectral_bound(two_asym, -1.0, 3.0, 1)
    with pytest.raises(InvalidParams):
        cg.squeezing_spectral_bound(cycle3, 1.0, 1.0, 1)


# ---------------------------------------------------------------------------
# return speeds and operator residual


def test_beta_gamma_goldens(path3, two_asym):
    assert cg.beta_gamma(path3, [0, 2]) == pytest.approx((4.0, 2.0))
    assert cg.beta_gamma(two_asym, [0]) == pytest.approx((1.0, 1.0))


def test_beta_gamma_keep_all(path3):
    beta, gamma = cg.beta_gamma(path3, [0, 1, 2])
    assert math.isinf(beta) and math.isinf(gamma)


def test_residual_goldens(path3):
    r2 = cg.operator_intertwining_residual(path3, [0, 2], 1.0, 2.0)
    assert r2.residual == pytest.approx(math.sqrt(3.0) / 4.0)
    assert r2.bound == pytest.approx(math.sqrt(3.0))
    r1 = cg.operator_intertwining_residual(path3, [0, 2], 1.0, 1.0)
    assert r1.residual == pytest.approx(0.75)
    assert r1.bound == pytest.approx(3.0)
    rinf = cg.operator_intertwining_residual(path3, [0, 2], 1.0, math.inf)
    assert rinf.residual == pytest.approx(0.5)
    assert rinf.bound == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_residual_dominated_by_bound(name):
    net = ALL_NETS[name]
    keeps = [k for k in keep_choices(net.n) if len(k) < net.n]
    for keep, qp, p in itertools.product(
        keeps, (0.3, 1.0, 4.0), (1.0, 2.0, math.inf)
    ):
        rep = cg.operator_intertwining_residual(net, keep, qp, p)
        assert rep.residual <= rep.bound * (1 + 1e-12), (keep, qp, p)


def test_residual_scales_linearly_in_q_prime(path3):
    # the defect matrix is linear in the kernel link; the bound is linear
    # in q', so the ratio stays meaningful across scales
    r1 = cg.operator_intertwining_residual(path3, [0, 2], 1.0, math.inf)
    r4 = cg.operator_intertwining_residual(path3, [0, 2], 4.0, math.inf)
    assert r4.bound == pytest.approx(4.0 * r1.bound)


# ---------------------------------------------------------------------------
# sparsification


@pytest.fixture
def ring8_reduction():
    ring8 = build_network(cycle_edges(8, 1.0), 8)
    return cg.schur_reduce(ring8, [0, 2, 4, 6])


def test_sparsify_theta_zero_is_noop(ring8_reduction):
    assert cg.sparsify(ring8_reduction, 1.0, 0.0) is ring8_reduction.network


def test_sparsify_removes_pairs_within_budget(ring8_reduction):
    theta = 0.5
    q_prime = 1.0
    sparse = cg.sparsify(ring8_reduction, q_prime, theta)
    assert sparse.w.size == 6
    assert sparse.reversible
    assert np.abs(sparse.mu - ring8_reduction.mu).max() < 1e-12

    link = cg.kernel_link(
        ring8_reduction.parent, ring8_reduction.kept, q_prime
    )
    Lfine = ring8_reduction.parent.L
    before = np.abs(ring8_reduction.L @ link - link @ Lfine).max(axis=1)
    after = np.abs(sparse.L @ link - link @ Lfine).max(axis=1)
    assert (after <= (1 + theta) * before + 1e-12).all()


def test_sparsify_checks_the_measure_it_keeps(ring8_reduction):
    # the uniform ring's reduced network paired with a parent whose
    # conditioned measure is not uniform: that measure is not invariant,
    # and must not be handed to the sparsified network
    weights = [1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    edges = [(x, (x + 1) % 8, w) for x, w in enumerate(weights)]
    edges += [((x + 1) % 8, x, 1.0) for x in range(8)]
    skewed = cg.ReducedNetwork(build_network(edges, 8), ring8_reduction.kept)
    skewed.network = ring8_reduction.network
    assert np.ptp(skewed.mu) > 1e-3
    with pytest.raises(NumericalError, match="conditioned measure"):
        cg.sparsify(skewed, 1.0, 0.5)


def test_sparsify_preserves_irreducibility(ring8_reduction):
    # even with an unlimited budget, removals that would disconnect the
    # support are refused; a spanning structure always survives
    sparse = cg.sparsify(ring8_reduction, 1.0, 1e9)
    assert sparse.w.size >= 2 * (sparse.n - 1)


def test_sparsify_validation(ring8_reduction, cycle3):
    with pytest.raises(InvalidParams):
        cg.sparsify(ring8_reduction, 1.0, -0.1)
    nonrev = cg.schur_reduce(cycle3, [0, 1, 2])
    with pytest.raises(InvalidParams):
        cg.sparsify(nonrev, 1.0, 0.5)
