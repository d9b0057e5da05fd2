"""Coarse-graining: Schur reduction, link operators, quality functionals."""

import itertools
import math
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from forestnets import coarsegrain as cg
from forestnets import network, oracle, sampler
from forestnets import wavelets as wv
from forestnets.errors import (
    EmptyBlock,
    InvalidParams,
    NotIrreducible,
    NumericalError,
    SingularSystem,
    ZeroProbability,
)
from forestnets.network import Network, build_network, skeleton
from forestnets.norms import condition_measure

import forest_enum as fe
from netdefs import SMALL_GRAPHS, cycle_edges, grid_edges

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


@st.composite
def nested_keeps(draw):
    """(net, K1, K2): a strongly connected digraph on 3 to 10 vertices with
    weights in [0.1, 10], a kept set K1 of at least 2 vertices and a
    nonempty K2 inside it."""
    n = draw(st.integers(3, 10))
    order = draw(st.permutations(range(n)))
    pairs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs |= {(a, b) for a, b in draw(st.lists(extra, max_size=2 * n)) if a != b}
    weight = st.floats(0.1, 10.0)
    net = build_network([(a, b, draw(weight)) for a, b in sorted(pairs)], n)
    k1 = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2)))
    k2 = sorted(draw(st.sets(st.sampled_from(k1), min_size=1)))
    return net, k1, k2


# a guard: reducing in two stages matched reducing at once before the
# Schur complement shared the reduction's factorization
@settings(max_examples=300, deadline=None)
@given(case=nested_keeps())
def test_schur_reduction_is_transitive(case):
    net, k1, k2 = case
    staged = cg.schur_reduce(net, k1).network
    once = cg.schur_complement(net, k2)
    twice = cg.schur_complement(staged, np.searchsorted(k1, k2))
    assert np.abs(twice - once).max() <= 1e-10 * max(1.0, net.w_max)


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


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_reduction_factors_its_dropped_block_once(monkeypatch, name):
    # the Schur complement, the return speeds and reconstruction solves
    # all go through one LU factorization of -L_DD
    net = ALL_NETS[name]
    factored, solved = [], []
    real_lu, real_solve = scipy.linalg.lu_factor, np.linalg.solve
    monkeypatch.setattr(
        scipy.linalg, "lu_factor", lambda A: factored.append(A) or real_lu(A)
    )
    monkeypatch.setattr(
        np.linalg, "solve", lambda *a: solved.append(a) or real_solve(*a)
    )
    for keep in keep_choices(net.n):
        red = cg.ReducedNetwork(net, keep)
        if red.dropped.size == 0:
            continue
        factored.clear()
        red._complement()
        red.speeds
        red.solve_dropped(np.ones(red.dropped.size))
        red.solve_dropped(np.ones((red.dropped.size, 2)))
        assert len(factored) == 1 and solved == []


def test_residual_validates_its_kept_set_three_times(monkeypatch, path3):
    calls = []
    real = network.vertex_set
    for mod in (network, cg, oracle, sampler):
        monkeypatch.setattr(
            mod, "vertex_set", lambda *a: calls.append(a) or real(*a)
        )
    cg.operator_intertwining_residual(path3, [0, 2], 1.0, 2.0)
    assert len(calls) <= 3


def test_singular_dropped_block_raises(path3):
    # lu_factor only warns on a singular matrix; the reduction raises
    red = cg.ReducedNetwork(path3, [0])
    singular = build_network([(0, 1, 1.0), (1, 0, 1.0)], 2)
    red.parent = types.SimpleNamespace(
        n=3, src=singular.src + 1, dst=singular.dst + 1, w=singular.w,
        exits=np.pad(singular.exits, (1, 0)),
    )
    with pytest.raises(SingularSystem):
        red.solve_dropped(np.ones(2))


def test_solve_dropped_checks_several_columns(path5):
    # factors of a slightly wrong matrix fail the residual check on the
    # combination of the columns, as on a single one
    red = cg.ReducedNetwork(path5, [0, 4])
    lu, piv = red._lu.factors
    red._lu.factors = (lu * (1.0 + 1e-6), piv)
    for rhs in (np.ones(3), np.eye(3), np.column_stack([np.zeros(3), np.ones(3)])):
        with pytest.raises(SingularSystem):
            red.solve_dropped(rhs)


def test_reduction_of_large_rates_scales_exactly():
    # the residual of the Schur solve grows with the rates while its
    # solution, a harmonic measure, does not; the checks must scale with
    # ||-L_DD|| to accept these networks
    rng = np.random.default_rng(5)
    edges = [(a, b, w * rng.uniform(0.5, 2.0)) for a, b, w in grid_edges(6, 6)]
    # every third diagonal kept: each dropped vertex has a dropped neighbour
    keep = [v for v in range(36) if (v // 6 + v % 6) % 3 == 0]
    net = build_network(edges, 36)
    big = build_network([(a, b, w * 1e8) for a, b, w in edges], 36)
    Lbar, h = cg.schur_complement(net, keep), oracle.hitting_times(net, keep)
    assert np.abs(cg.schur_complement(big, keep) / 1e8 - Lbar).max() < 1e-12
    assert np.abs(oracle.hitting_times(big, keep) * 1e8 - h).max() < 1e-12 * h.max()


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_return_speeds_match_exact_hitting_times(name):
    n, edges = SMALL_GRAPHS[name]
    net = ALL_NETS[name]
    for keep in keep_choices(n):
        h = fe.exact_hitting_times(n, edges, list(keep))
        drop = np.setdiff1d(np.arange(n), keep)
        want = (
            float((skeleton(net)[list(keep), :] @ h).max()),
            float(h[drop].max()) if drop.size else 0.0,
        )
        got = [1.0 / s for s in cg.beta_gamma(net, keep)]
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12), keep


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


def test_partition_link_checks_each_block_as_a_vertex_set(path3):
    with pytest.raises(InvalidParams, match="^duplicate vertex in partition$"):
        cg.partition_link(path3, [[0, 0], [1, 2]])
    with pytest.raises(InvalidParams, match="^vertex 3 of partition outside 0..2$"):
        cg.partition_link(path3, [[0, 3], [1, 2]])
    with pytest.raises(InvalidParams, match="^vertex 1 appears in two blocks$"):
        cg.partition_link(path3, [[0, 1], [2, 1]])


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


@pytest.mark.parametrize("q_prime", [0.0, -1.0, math.nan, math.inf])
def test_every_q_prime_reader_gives_one_message(path3, q_prime):
    for reader in (
        lambda: cg.kernel_link(path3, [0], q_prime),
        lambda: cg.metastable_kernel(path3, [[0], [1, 2]], q_prime),
        lambda: cg.intertwining_error_tv(path3, [[0], [1, 2]], q_prime),
    ):
        with pytest.raises(InvalidParams, match="q' must be positive and finite, got"):
            reader()


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
    # one partition link and one factorization of (q' Id - L)^T, which
    # the link is solved against; the killed kernel itself is not formed
    calls = {"green": 0, "partition_link": 0, "lu_factor": 0}
    for mod, name in (
        (oracle, "green"), (cg, "partition_link"), (scipy.linalg, "lu_factor")
    ):
        real = getattr(mod, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mod, name, counted)
    cg.intertwining_error_tv(path3, [[0], [1, 2]], 1.0)
    assert calls == {"green": 0, "partition_link": 1, "lu_factor": 1}


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


# a bad killing rate q or smoothing rate q', each with the message of its check
BAD_RATES = [
    pytest.param(bad, 1.0, "killing rate q must be finite", id=f"q={bad}")
    for bad in (math.inf, math.nan, -1.0)
] + [
    pytest.param(1.0, bad, "q' must be positive and finite", id=f"q'={bad}")
    for bad in (math.inf, math.nan, 0.0, -1.0)
]


def _refuse_work(monkeypatch):
    # the rates are checked before any spectrum, moment or walk is computed
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the rates were checked")

    for name in ("_nonzero_spectrum", "root_count_moments"):
        monkeypatch.setattr(oracle, name, no_work)
    monkeypatch.setattr(sampler, "loop_erased_walk", no_work)


@pytest.mark.parametrize("q, q_prime, message", BAD_RATES)
def test_spectral_bound_checks_rates_first(monkeypatch, two_asym, q, q_prime, message):
    _refuse_work(monkeypatch)
    with pytest.raises(InvalidParams, match=message):
        cg.squeezing_spectral_bound(two_asym, q, q_prime, 1)


@pytest.mark.parametrize("q, q_prime, message", BAD_RATES)
def test_tv_meta_bound_checks_rates_first(monkeypatch, two_asym, q, q_prime, message):
    _refuse_work(monkeypatch)
    with pytest.raises(InvalidParams, match=message):
        cg.tv_meta_bound(two_asym, q, q_prime, 2.0, n_walks=4, seed=1)


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


def test_row_sums_of_large_rates_scale_with_w_max_over_q_prime():
    # at q' = 1 the rows of K_{q'} on rates x1e8 sum to 1 only within about
    # eps * w_max / q', above the absolute STRUCTURAL_TOL * n
    net = build_network(grid_edges(6, 6, 1e8), 36)
    unit = np.finfo(float).eps * (1.0 + net.w_max / 1.0)
    link = cg.kernel_link(net, [0, 3, 7, 10, 14, 17, 21, 24, 28, 31, 35], 1.0)
    rows = [list(range(r, r + 6)) for r in range(0, 36, 6)]
    Pbar = cg.metastable_kernel(net, rows, 1.0)
    for P in (link, Pbar):
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 64 * unit


def test_intertwining_tv_of_large_rates():
    # the same rows: held to the Green solve's scale, not to 1e-12 n; the
    # walk mixes long before it is killed, so both sides are near mu
    net = build_network(grid_edges(6, 6, 1e8), 36)
    rows = [list(range(r, r + 6)) for r in range(0, 36, 6)]
    err = cg.intertwining_error_tv(net, rows, 1.0)
    assert err.shape == (6,)
    assert 0.0 <= err.min() and err.max() < 1e-6


# ---------------------------------------------------------------------------
# networks of checked rates


def random_grid(side, rng, symmetric):
    """4-neighbour grid with weights in [0.5, 2]: the same both ways, or
    drawn for each direction."""
    pairs = [(x, y) for x, y, _ in grid_edges(side, side)[::2]]
    fwd, back = rng.uniform(0.5, 2.0, (2, len(pairs)))
    if symmetric:
        back = fwd
    edges = [(x, y, w) for (x, y), w in zip(pairs, fwd)]
    return edges + [(y, x, w) for (x, y), w in zip(pairs, back)]


def edge_list_network(rates, mu):
    """The network of the nonzero entries of ``rates`` built as a validated
    edge list."""
    i, j = np.nonzero(rates)
    return Network(np.column_stack([i, j, rates[i, j]]), rates.shape[0], mu=mu)


def assert_same_network(a, b):
    for name in ("src", "dst", "w", "L", "mu"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert (a.n, a.w_max, a.reversible) == (b.n, b.w_max, b.reversible)


def test_rates_and_edge_list_build_the_same_network():
    rng = np.random.default_rng(11)
    side = 24
    net = build_network(random_grid(side, rng, symmetric=True), side * side)
    keeps, n = [], side * side
    for _ in range(3):
        m = round(0.65 * n)
        keeps.append(sorted(rng.choice(n, m, replace=False).tolist()))
        n = m
    f = rng.normal(size=side * side)
    forced = wv.build_pyramid(net, f, forced_keep=keeps)
    asym = build_network(random_grid(6, rng, symmetric=False), 36)
    sampled = wv.build_pyramid(asym, rng.normal(size=36), seed=4, max_levels=3)
    assert sampled.depth == 3 and not asym.reversible
    for pyr in (forced, sampled):
        for lvl in pyr.levels:
            red = lvl.reduction
            Lbar = red._complement()
            Lbar = Lbar.toarray() if scipy.sparse.issparse(Lbar) else Lbar
            rates = np.maximum(Lbar - np.diag(np.diag(Lbar)), 0.0)
            assert_same_network(red.network, edge_list_network(rates, red.mu))

    small = build_network(random_grid(4, rng, symmetric=True), 16)
    red = cg.schur_reduce(small, range(0, 16, 2))
    sparse = cg.sparsify(red, 1.0, 1e9)
    assert sparse.w.size < red.network.w.size
    rates = sparse.L - np.diag(np.diag(sparse.L))
    assert_same_network(sparse, edge_list_network(rates, red.mu))


def test_rates_path_checks_reachability_both_ways():
    mu = np.full(3, 1 / 3)
    forward_only = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NotIrreducible, match="backward-reachable"):
        Network.of_rates(forward_only, mu)
    with pytest.raises(NotIrreducible, match="forward-reachable"):
        Network.of_rates(forward_only.T.copy(), mu)


@pytest.mark.parametrize("mu", [[0.5, 0.0], [1.5, -0.5], [1.0]])
def test_rates_path_refuses_a_measure_that_is_not_positive(mu):
    with pytest.raises(InvalidParams, match="not positive"):
        Network.of_rates(np.array([[0.0, 2.0], [1.0, 0.0]]), np.array(mu))


def test_rates_path_checks_exit_rate_overflow():
    rates = np.array([[0.0, 1e308, 1e308], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(InvalidParams, match="exit rate of vertex 0 overflows"):
        Network.of_rates(rates, np.full(3, 1 / 3))


def test_rates_network_takes_over_the_rate_matrix():
    # the generator is built in the handed rates, not in a second array
    rates = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 1.0], [0.0, 3.0, 0.0]])
    net = Network.of_rates(rates, np.array([1.0, 2.0, 2.0 / 3.0]) / (11 / 3))
    assert net.L is rates
    assert net.L.tolist() == [[-2.0, 2.0, 0.0], [1.0, -2.0, 1.0], [0.0, 3.0, -3.0]]
    assert (net.src.tolist(), net.dst.tolist()) == ([0, 1, 1, 2], [1, 0, 2, 1])


def test_skeleton_rows_of_one_vertex_network():
    net = Network([], 1)
    assert skeleton(net).tolist() == [[1.0]]
    assert cg.beta_gamma(net, [0]) == (math.inf, math.inf)
