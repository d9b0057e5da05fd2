"""Multiresolution transform: analysis, reconstruction, pyramids, bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestnets import coarsegrain as cg
from forestnets import config, oracle
from forestnets import wavelets as wv
from forestnets.errors import (
    DegenerateBasis,
    InvalidParams,
    NumericalError,
    SingularSystem,
)
from forestnets.network import build_network
from forestnets.norms import condition_measure, mu_inner

from netdefs import SMALL_GRAPHS, cycle_edges, grid_edges

ALL_NETS = {name: build_network(e, n) for name, (n, e) in SMALL_GRAPHS.items()}

#: reversible birth-death chain with a nonuniform invariant measure
BD3 = build_network([(0, 1, 2.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 3.0)], 3)


# ---------------------------------------------------------------------------
# one level


def test_analyze_golden(two_asym):
    approx, detail = wv.analyze_level(two_asym, [0], 3.0, [3.0, 0.0])
    assert np.allclose(approx, [2.0])
    assert np.allclose(detail, [0.5])


def test_reconstruct_lift_golden(two_asym):
    lifted_a = wv.reconstruct_level(two_asym, [0], 3.0, [2.0], [0.0])
    lifted_d = wv.reconstruct_level(two_asym, [0], 3.0, [0.0], [0.5])
    assert np.allclose(lifted_a, [2.0, 2.0])
    assert np.allclose(lifted_d, [1.0, -2.0])
    full = wv.reconstruct_level(two_asym, [0], 3.0, [2.0], [0.5])
    assert np.allclose(full, [3.0, 0.0])


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_roundtrip_every_network(name):
    net = ALL_NETS[name]
    rng = np.random.default_rng(17)
    for q_prime in (0.5, 2.0):
        for trial in range(3):
            size = int(rng.integers(1, net.n))
            keep = rng.choice(net.n, size=size, replace=False)
            f = rng.normal(size=net.n)
            fb, fd = wv.analyze_level(net, keep, q_prime, f)
            back = wv.reconstruct_level(net, keep, q_prime, fb, fd)
            assert np.abs(back - f).max() < 1e-10


@st.composite
def level_cases(draw):
    """(net, keep, q', f): a strongly connected digraph on 3 to 10 vertices
    with weights in [0.1, 10], a proper nonempty kept set, a smoothing rate
    in [0.1, 10] and a signal."""
    n = draw(st.integers(3, 10))
    order = draw(st.permutations(range(n)))
    pairs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs |= {(a, b) for a, b in draw(st.lists(extra, max_size=2 * n)) if a != b}
    weight = st.floats(0.1, 10.0)
    net = build_network([(a, b, draw(weight)) for a, b in sorted(pairs)], n)
    keep = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    q_prime = draw(st.floats(0.1, 10.0))
    f = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    return net, keep, q_prime, np.asarray(f)


# a guard: analysis then reconstruction was the identity before the
# reconstruction shared one factorization too
@settings(max_examples=200, deadline=None)
@given(case=level_cases())
def test_reconstruct_inverts_analyze(case):
    net, keep, q_prime, f = case
    fb, fd = wv.analyze_level(net, keep, q_prime, f)
    back = wv.reconstruct_level(net, keep, q_prime, fb, fd)
    assert np.abs(back - f).max() <= 1e-9 * max(1.0, np.abs(f).max())


def test_constant_signal_has_no_details():
    for net in ALL_NETS.values():
        if net.n < 2:
            continue
        _, detail = wv.analyze_level(net, [0], 1.7, np.ones(net.n))
        assert np.abs(detail).max() < 1e-12


def test_keep_validation(two_asym):
    with pytest.raises(InvalidParams):
        wv.analyze_level(two_asym, [], 1.0, [1.0, 2.0])
    with pytest.raises(InvalidParams):
        wv.analyze_level(two_asym, [0, 1], 1.0, [1.0, 2.0])
    with pytest.raises(InvalidParams):
        wv.analyze_level(two_asym, [0], 1.0, [1.0])
    with pytest.raises(InvalidParams):
        wv.analyze_level(two_asym, [0, 0], 1.0, [1.0, 2.0])
    # the kept set is read once, so a generator works
    approx, _ = wv.analyze_level(two_asym, (v for v in [1]), 1.0, [1.0, 2.0])
    assert approx.shape == (1,)


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_level_w_bar_is_reduced_w_max(name):
    # a reduction reads its network's w_max off its checked rates, bit for
    # bit, without building the network
    net = ALL_NETS[name]
    rng = np.random.default_rng(3)
    for _ in range(4):
        if net.n < 2:
            break
        keep = rng.choice(net.n, size=int(rng.integers(1, net.n)), replace=False)
        reduction = cg.ReducedNetwork(net, keep)
        assert reduction.w_max == cg.schur_reduce(net, keep).network.w_max
        assert "network" not in vars(reduction)


@pytest.mark.parametrize("defect", ["negative rate", "measure not invariant"])
def test_schur_guards(monkeypatch, defect):
    real = cg.schur_complement

    def perturbed(net, keep):
        Lbar = real(net, keep)
        if defect == "negative rate":
            Lbar[0, 0], Lbar[0, 1] = 1e-6, -1e-6
        else:
            Lbar[0] *= 2.0  # still a generator, but mu(. | kept) moves
        return Lbar

    monkeypatch.setattr(cg, "schur_complement", perturbed)
    with pytest.raises(NumericalError):
        cg.schur_reduce(BD3, [0, 2])
    with pytest.raises(NumericalError):
        wv.reconstruct_level(BD3, [0, 2], 1.0, [1.0, 2.0], [0.5])


def test_level_rejects_bad_q_prime(two_asym):
    for q_prime in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParams):
            wv.reconstruct_level(two_asym, [0], q_prime, [2.0], [0.5])


# ---------------------------------------------------------------------------
# basis


def test_basis_golden(two_asym):
    scaling, wavelets = wv.basis_functions(two_asym, [0], 3.0)
    assert np.allclose(scaling, [[2.0, 0.5]])
    assert np.allclose(wavelets, [[0.5, -0.25]])


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_wavelets_have_zero_mean(name):
    net = ALL_NETS[name]
    _, wavelets = wv.basis_functions(net, [0], 1.3)
    ones = np.ones(net.n)
    for row in wavelets:
        assert abs(mu_inner(row, ones, net.mu)) < 1e-12


def test_coefficients_are_inner_products(path3):
    f = np.array([0.3, -1.1, 2.4])
    keep = [0, 2]
    scaling, wavelets = wv.basis_functions(path3, keep, 0.9)
    approx, detail = wv.analyze_level(path3, keep, 0.9, f)
    for i, row in enumerate(scaling):
        assert mu_inner(row, f, path3.mu) == pytest.approx(approx[i])
    for i, row in enumerate(wavelets):
        assert mu_inner(row, f, path3.mu) == pytest.approx(detail[i])


def test_degenerate_basis_detected(two_asym):
    # at huge smoothing rates the kernel collapses onto the identity and
    # the wavelet rows vanish
    with pytest.raises(DegenerateBasis):
        wv.basis_functions(two_asym, [0], 1e16)


def test_analysis_operator_self_adjoint_when_reversible():
    for name in ("path3", "star4", "diamond4"):
        net = ALL_NETS[name]
        K = oracle.green(net, 1.3).K
        mask = np.ones(net.n)
        mask[0] = 0.0  # keep vertex 0, drop the rest
        U = K - np.diag(mask)
        D = np.diag(net.mu)
        assert np.abs(D @ U - U.T @ D).max() < 1e-9


# ---------------------------------------------------------------------------
# pyramids


def build_cycle_pyramid(n=64, seed=7, **kw):
    net = build_network(cycle_edges(n, 1.0), n)
    x = np.arange(n)
    f = np.where(x < n // 2, np.sin(2 * np.pi * x / n), 0.25)
    return f, wv.build_pyramid(net, f, seed=seed, **kw)


def test_pyramid_exact_reconstruction():
    f, pyr = build_cycle_pyramid(max_levels=3)
    assert pyr.depth == 3
    rec = wv.reconstruct_pyramid(pyr)
    assert np.abs(rec - f).max() < 1e-10


def test_pyramid_deterministic():
    f, a = build_cycle_pyramid(seed=21, max_levels=2)
    _, b = build_cycle_pyramid(seed=21, max_levels=2)
    assert np.array_equal(a.apex, b.apex)
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(la.keep, lb.keep)
        assert np.array_equal(la.detail, lb.detail)
        assert la.q_prime == lb.q_prime
    _, c = build_cycle_pyramid(seed=22, max_levels=2)
    assert not np.array_equal(a.levels[0].keep, c.levels[0].keep)


def test_pyramid_constant_signal():
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    pyr = wv.build_pyramid(net, np.ones(n), seed=4, max_levels=3)
    for lvl in pyr.levels:
        assert np.abs(lvl.detail).max() < 1e-9
    assert np.abs(wv.approximation(pyr) - 1.0).max() < 1e-9


def test_signal_levels_chain():
    f, pyr = build_cycle_pyramid(max_levels=2)
    sigs = wv.signal_levels(pyr)
    assert len(sigs) == pyr.depth + 1
    assert np.abs(sigs[0] - f).max() < 1e-10
    assert np.array_equal(sigs[-1], pyr.apex)
    fb, _ = wv.analyze_level(
        pyr.levels[0].network, pyr.levels[0].keep, pyr.levels[0].q_prime, sigs[0]
    )
    assert np.abs(fb - sigs[1]).max() < 1e-10


def test_forced_keep_sets_q_prime(two_asym):
    pyr = wv.build_pyramid(two_asym, [3.0, 0.0], forced_keep=[[0]])
    assert pyr.levels[0].q_prime == pytest.approx(4.0)
    pinned = wv.build_pyramid(
        two_asym, [3.0, 0.0], forced_keep=[[0]], forced_q_prime=[3.0]
    )
    assert pinned.levels[0].q_prime == 3.0
    assert np.allclose(pinned.levels[0].detail, [0.5])
    assert np.allclose(wv.reconstruct_pyramid(pinned), [3.0, 0.0])


def test_pyramid_measure_bookkeeping():
    pyr = wv.build_pyramid(BD3, [1.0, -2.0, 0.5], forced_keep=[[0, 2]])
    assert np.allclose(pyr.levels[0].mu, [3 / 11, 6 / 11, 2 / 11])
    assert np.allclose(pyr.apex_mu, [0.6, 0.4])
    assert pyr.apex_base_mass == pytest.approx(5 / 11)
    assert np.abs(wv.reconstruct_pyramid(pyr) - [1.0, -2.0, 0.5]).max() < 1e-12


def test_sparsified_pyramid_reconstructs_exactly():
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    f = np.sin(np.arange(n) / 4.0)
    pyr = wv.build_pyramid(net, f, seed=9, max_levels=3, sparsify_theta=0.5)
    assert np.abs(wv.reconstruct_pyramid(pyr) - f).max() < 1e-10
    plain = wv.build_pyramid(net, f, seed=9, max_levels=3)
    # level 0 sees the same network and keep in both runs; only there is
    # the edge count directly comparable
    assert np.array_equal(pyr.levels[0].keep, plain.levels[0].keep)
    assert pyr.levels[0].next_network.w.size < plain.levels[0].next_network.w.size


def test_sparsified_bounds_read_exact_schur():
    # the stability constants of a level come from its exact Schur
    # complement, so they do not see which network fed the next level
    net = build_network(grid_edges(10, 10), 100)
    x = np.arange(100)
    f = np.sin(x / 7.0) + (x % 10 > 4)
    pyr = wv.build_pyramid(net, f, seed=5, max_levels=3, sparsify_theta=0.5)
    exact = dataclasses.replace(
        pyr,
        levels=[
            dataclasses.replace(lvl, stored_next=None)
            for lvl in pyr.levels
        ],
    )
    assert any(
        a.next_network.w_max != b.next_network.w_max
        for a, b in zip(pyr.levels[:-1], exact.levels)
    )
    for p in (1.0, 2.0, math.inf):
        assert wv.stability_bounds(pyr, p) == wv.stability_bounds(exact, p)


def test_pyramid_validation(two_asym):
    with pytest.raises(InvalidParams):
        wv.build_pyramid(two_asym, [1.0, 2.0])  # no seed, no forced keep
    with pytest.raises(InvalidParams):
        wv.build_pyramid(two_asym, [1.0, 2.0], seed=1, min_size=1)
    with pytest.raises(InvalidParams):
        wv.build_pyramid(
            two_asym, [1.0, 2.0], forced_keep=[[0]], forced_q_prime=[1.0, 2.0]
        )
    with pytest.raises(InvalidParams):
        wv.build_pyramid(
            two_asym, [1.0, 2.0], forced_keep=[[0]], forced_q_prime=[-1.0]
        )


def test_pyramid_stops_at_min_size():
    n = 16
    net = build_network(cycle_edges(n, 1.0), n)
    pyr = wv.build_pyramid(net, np.zeros(n), seed=1, min_size=8)
    assert all(lvl.n >= 8 for lvl in pyr.levels)
    assert pyr.apex.size < 8 or pyr.levels[-1].next_network.n < 8


# ---------------------------------------------------------------------------
# compression


def test_compress_endpoints():
    _, pyr = build_cycle_pyramid(n=32, seed=3, max_levels=2)
    total = pyr.detail_count()
    exact = wv.compress(pyr, total)
    assert exact.rel_error < 1e-12
    nothing = wv.compress(pyr, 0)
    assert np.abs(nothing.values - wv.approximation(pyr)).max() < 1e-12
    with pytest.raises(InvalidParams):
        wv.compress(pyr, total + 1)
    with pytest.raises(InvalidParams):
        wv.compress(pyr, -1)


def test_compression_curve_monotone():
    _, pyr = build_cycle_pyramid(n=64, seed=7, max_levels=3)
    curve = wv.compression_curve(pyr, [0.1, 0.25, 0.5, 1.0])
    errs = [c.rel_error for c in curve]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-12
    with pytest.raises(InvalidParams):
        wv.compression_curve(pyr, [1.5])


def test_compress_keeps_are_nested():
    _, pyr = build_cycle_pyramid(n=32, seed=5, max_levels=2)
    small = wv.compress(pyr, 3)
    large = wv.compress(pyr, 8)
    ranked = wv._detail_scores(pyr)
    assert set(t[1:] for t in ranked[:3]) <= set(t[1:] for t in ranked[:8])
    assert small.total_details == large.total_details == pyr.detail_count()


# ---------------------------------------------------------------------------
# stability bounds


def test_detail_size_golden(two_asym):
    measured, bound = wv.detail_size_check(two_asym, [0], 3.0, [3.0, 0.0], 1.0)
    assert measured == pytest.approx(0.5)
    assert bound == pytest.approx(5.0 / 3.0)
    measured, bound = wv.detail_size_check(
        two_asym, [0], 3.0, [3.0, 0.0], math.inf
    )
    assert measured == pytest.approx(0.5)
    assert bound == pytest.approx(2.0)


def test_lift_check_goldens(two_asym):
    measured, bound = wv.approx_check(two_asym, [0], 3.0, [2.0], 1.0)
    assert (measured, bound) == pytest.approx((2.0, 2.0))
    measured, bound = wv.detail_check(two_asym, [0], 3.0, [0.5], 1.0)
    assert (measured, bound) == pytest.approx((5 / 3, 5 / 3))
    measured, bound = wv.detail_check(two_asym, [0], 3.0, [0.5], math.inf)
    assert (measured, bound) == pytest.approx((2.0, 2.0))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_stability_bounds_dominate(p):
    _, pyr = build_cycle_pyramid(n=64, seed=7, max_levels=3)
    report = wv.stability_bounds(pyr, p)
    assert report.all_dominated(1e-9)
    assert len(report.levels) == pyr.depth


def test_stability_bounds_nonuniform_measure():
    pyr = wv.build_pyramid(BD3, [1.0, -2.0, 0.5], forced_keep=[[0, 2]])
    for p in (1.0, 2.0, math.inf):
        assert wv.stability_bounds(pyr, p).all_dominated(1e-9)


def test_analysis_norm_within_budget():
    f, pyr = build_cycle_pyramid(n=32, seed=13, max_levels=3)
    net = pyr.base
    for p in (1.0, 2.0, math.inf):
        rep = wv.stability_bounds(pyr, p)
        assert rep.analysis_measured <= rep.analysis_bound + 1e-12


def test_each_level_computes_its_operators_once(monkeypatch):
    calls = {"schur_complement": 0, "beta_gamma": 0}
    for name in calls:
        real = getattr(cg, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cg, name, counted)
    # the build computes each Schur complement; the queries reuse it
    _, pyr = build_cycle_pyramid(n=32, seed=3, max_levels=3)
    wv.compression_curve(pyr, [0.1, 0.5, 1.0])
    wv.reconstruct_pyramid(pyr)
    for p in (1.0, 2.0, math.inf):
        wv.stability_bounds(pyr, p)
    assert calls == {"schur_complement": pyr.depth, "beta_gamma": pyr.depth}


def test_reconstruct_checks_its_residual(monkeypatch):
    _, pyr = build_cycle_pyramid(n=32, seed=3, max_levels=2)
    lvl = pyr.levels[0]
    monkeypatch.setattr(config, "RESIDUAL_TOL", -1.0)
    with pytest.raises(SingularSystem):
        lvl.op.reconstruct(np.ones(lvl.keep.size), lvl.detail)


def test_detail_size_check_checks_its_residual(monkeypatch):
    # a guard: the Green inverse it used to form checked its residual too
    f, pyr = build_cycle_pyramid(n=32, seed=3, max_levels=2)
    lvl = pyr.levels[0]
    monkeypatch.setattr(config, "RESIDUAL_TOL", -1.0)
    with pytest.raises(SingularSystem):
        wv.detail_size_check(lvl.network, lvl.keep, lvl.q_prime, f, 2.0)


def test_stability_bounds_validation(two_asym):
    pyr = wv.build_pyramid(two_asym, [1.0, 0.0], forced_keep=[[0]])
    with pytest.raises(InvalidParams):
        wv.stability_bounds(pyr, 0.3)
