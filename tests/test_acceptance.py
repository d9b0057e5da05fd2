"""Acceptance gate: one test per shipped guarantee.

Each test is self-contained, uses fixed seeds, and prints a single
summary line on success, so `pytest -v tests/test_acceptance.py` reads
as a pass/fail checklist.  Statistical checks pin both the seed and the
tolerance; runtime budgets are asserted with `time.monotonic`.
"""

import itertools
import math
import time

import numpy as np
import pytest

from forestnets import (
    build_network,
    build_pyramid,
    compression_curve,
    coarsegrain as cg,
    oracle,
    reconstruct_pyramid,
    sampler,
    skeleton,
    stability_bounds,
    wavelets as wv,
)

import forest_enum as fe
import netdefs


def _net(name):
    n, edges = netdefs.SMALL_GRAPHS[name]
    return build_network(edges, n)


def _report(num, msg):
    print(f"criterion {num:02d} PASS: {msg}")


# ---------------------------------------------------------------------------


def test_criterion_01_oracle_matches_enumeration():
    t0 = time.monotonic()
    names = sorted(netdefs.SMALL_GRAPHS)
    assert len(names) >= 6
    assert "cycle3" in names and "two_asym" in names
    assert all(netdefs.SMALL_GRAPHS[nm][0] <= 5 for nm in names)

    for name in names:
        n, edges = netdefs.SMALL_GRAPHS[name]
        net = build_network(edges, n)
        for q, B in [(1.0, ()), (3.0, ()), (0.7, (0,))]:
            law = fe.forest_law(n, edges, q, B)
            assert oracle.partition_fn(net, q, B) == pytest.approx(
                fe.partition_function(n, edges, q, B), rel=1e-9
            )
            for size in (1, 2):
                for A in itertools.combinations(range(n), size):
                    assert oracle.root_inclusion_prob(
                        net, q, A, B
                    ) == pytest.approx(fe.root_inclusion(law, A), abs=1e-9)
            oriented = [(s, d) for s, d, _ in edges]
            for e in oriented:
                assert oracle.edge_inclusion_prob(
                    net, q, [e], B
                ) == pytest.approx(fe.edge_inclusion(law, [e]), abs=1e-9)
            pmf = fe.root_count_pmf(law)
            got = oracle.root_count_law(net, q, B)
            for k, p in got.as_dict().items():
                assert p == pytest.approx(pmf.get(k, 0.0), abs=1e-9)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(1, f"{len(names)} graphs x 3 settings vs enumeration, "
               f"{elapsed:.1f}s")


def test_criterion_02_sampler_reproduces_root_count_law():
    t0 = time.monotonic()
    cases = [
        ("two_asym", 3.0, 11, {1: 0.5, 2: 0.5}),
        ("cycle3", 1.0, 12, {1: 3 / 7, 2: 3 / 7, 3: 1 / 7}),
    ]
    n_samples = 100_000
    for name, q, seed, want_pmf in cases:
        net = _net(name)
        law = oracle.root_count_law(net, q)
        for k, p in want_pmf.items():
            assert law.pmf[k] == pytest.approx(p, abs=1e-12)
        stats = sampler.empirical_stats(net, q, n_samples=n_samples, seed=seed)
        for k, p in want_pmf.items():
            band = 3.0 * math.sqrt(p * (1.0 - p) / n_samples)
            freq = stats.root_count_hist.get(k, 0) / n_samples
            assert abs(freq - p) <= band, (name, k, freq, p)
        assert stats.chi2_pvalue > 1e-3, (name, stats.chi2_pvalue)

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(2, f"2x{n_samples} samples inside 3-sigma bands, "
               f"chi2 p ok, {elapsed:.1f}s")


def test_criterion_03_roots_are_well_distributed():
    # Mean hitting time of the sampled root set: start-independent and
    # equal to the closed spectral form; fixed root count gives the
    # coefficient ratio.
    for name, q in [("two_asym", 3.0), ("path3", 1.0), ("cycle3", 1.0)]:
        net = _net(name)
        want = oracle.mean_root_hitting(net, q)
        n_samples = 20_000
        sums = np.zeros(net.n)
        sqs = np.zeros(net.n)
        cache = {}
        for i in range(n_samples):
            forest = sampler.wilson_sample(net, q, seed=101, sample_index=i)
            key = tuple(int(r) for r in forest.roots)
            h = cache.get(key)
            if h is None:
                h = oracle.hitting_times(net, key)
                cache[key] = h
            sums += h
            sqs += h * h
        mean = sums / n_samples
        se = np.sqrt((sqs / n_samples - mean**2) / n_samples)
        for x in range(net.n):
            for y in range(x + 1, net.n):
                gap = 3.0 * math.sqrt(se[x] ** 2 + se[y] ** 2)
                assert abs(mean[x] - mean[y]) <= gap, (name, x, y)
        assert abs(mean.mean() - want) <= 0.02 * want, (name, mean, want)

    # conditioned on exactly one root, the 2-vertex network gives 1/3
    net = _net("two_asym")
    assert oracle.mean_root_hitting_conditional(net, 1) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )
    tot = np.zeros(net.n)
    count = 0
    cache = {}
    for i in range(60_000):
        forest = sampler.wilson_sample(net, 3.0, seed=202, sample_index=i)
        if forest.roots.size != 1:
            continue
        key = tuple(int(r) for r in forest.roots)
        h = cache.get(key)
        if h is None:
            h = oracle.hitting_times(net, key)
            cache[key] = h
        tot += h
        count += 1
    cond = tot / count
    assert np.abs(cond - 1.0 / 3.0).max() <= 0.01, cond
    _report(3, "hitting means start-independent, spectral formula "
               "within 2%, conditioned ratio 1/3 +- 0.01")


def test_criterion_04_roots_follow_restricted_equilibria():
    for name, q in [("two_asym", 3.0), ("path3", 1.0)]:
        net = _net(name)
        report = sampler.conditional_root_equilibrium_check(
            net, q, 100_000, seed=31
        )
        assert report.entries, name
        worst = max(entry.max_tv for entry in report.entries)
        assert worst <= 0.02, (name, worst)
    _report(4, "conditional root law matches restricted equilibrium, "
               "max TV <= 0.02 at 1e5 samples")


def test_criterion_05_schur_consistency():
    # iterated reduction composes
    path5 = _net("path5")
    once = cg.schur_reduce(path5, [0, 4])
    staged = cg.schur_reduce(
        cg.schur_reduce(path5, [0, 2, 4]).network, [0, 2]
    )
    assert np.abs(once.L - staged.L).max() <= 1e-9

    # reversibility survives reduction
    red = cg.schur_reduce(path5, [0, 2, 4])
    mu = red.network.mu
    W = red.network.L.copy()
    np.fill_diagonal(W, 0.0)
    flow = mu[:, None] * W
    assert np.abs(flow - flow.T).max() <= 1e-9

    # watched-walk Monte Carlo agrees with the reduced skeleton
    path3 = _net("path3")
    red3 = cg.schur_reduce(path3, [0, 2])
    want = np.eye(2) + red3.L / path3.w_max
    P = skeleton(path3)
    kept = {0: 0, 2: 1}
    rng = np.random.default_rng(77)
    n_trials = 40_000
    counts = np.zeros((2, 2))
    for start, row in ((0, 0), (2, 1)):
        for _ in range(n_trials):
            x = int(rng.choice(3, p=P[start]))
            while x not in kept:
                x = int(rng.choice(3, p=P[x]))
            counts[row, kept[x]] += 1
    emp = counts / n_trials
    sigma = np.sqrt(want * (1.0 - want) / n_trials)
    assert (np.abs(emp - want) <= 3.0 * sigma).all(), emp
    _report(5, "reduction transitive and reversible <= 1e-9, watched-walk "
               "MC within 3 sigma")


def test_criterion_06_singleton_partitions_intertwine_exactly():
    for name in sorted(netdefs.SMALL_GRAPHS):
        net = _net(name)
        assert net.n <= 6
        singletons = [[v] for v in range(net.n)]
        for q_prime in (0.5, 3.0):
            defect = cg.intertwining_error_tv(net, singletons, q_prime)
            assert defect.max() <= 1e-12, (name, q_prime)
    _report(6, "singleton partitions give zero TV defect (<= 1e-12) "
               "at q'=0.5 and 3.0")


def _acceptance_pyramids():
    nets = {
        "cycle64": build_network(netdefs.cycle_edges(64), 64),
        "grid16x16": build_network(netdefs.grid_edges(16, 16), 256),
    }
    out = []
    for name, net in nets.items():
        rng = np.random.default_rng(13)
        values = rng.standard_normal(net.n)
        for depth in (1, 3):
            pyr = build_pyramid(net, values, seed=42, max_levels=depth)
            out.append((name, depth, net, values, pyr))
    return out


def test_criterion_07_perfect_reconstruction():
    for name, depth, net, values, pyr in _acceptance_pyramids():
        err = np.abs(reconstruct_pyramid(pyr) - values).max()
        assert err <= 1e-8, (name, depth, err)
        const = build_pyramid(net, np.ones(net.n), seed=42, max_levels=depth)
        for level in const.levels:
            assert np.abs(level.detail).max() <= 1e-9, (name, depth)
    _report(7, "depth-1 and depth-3 pyramids on 64-cycle and 16x16 grid "
               "reconstruct to <= 1e-8; constants give zero details")


def test_criterion_08_bounds_dominate_measurements():
    for name, depth, _net_, _values_, pyr in _acceptance_pyramids():
        for p in (1.0, 2.0, math.inf):
            report = stability_bounds(pyr, p)
            assert report.analysis_measured <= report.analysis_bound + 1e-9
            assert (report.approx_gap_measured
                    <= report.approx_gap_bound + 1e-9)
            for lb in report.levels:
                assert lb.approx_measured <= lb.approx_bound + 1e-9
                assert lb.detail_measured <= lb.detail_bound + 1e-9
                assert (lb.detail_size_measured
                        <= lb.detail_size_bound + 1e-9), (name, depth, p)

    # hand-worked 2-vertex case: measured detail size 1/2, bound 5/3
    two = _net("two_asym")
    measured, bound = wv.detail_size_check(two, [0], 3.0, [3.0, 0.0], 1.0)
    assert measured == pytest.approx(0.5, abs=1e-12)
    assert bound == pytest.approx(5.0 / 3.0, abs=1e-12)
    _report(8, "all stability bounds dominate at p in {1,2,inf}; "
               "2-vertex detail case reproduces (1/2, 5/3)")


def test_criterion_09_compression_error_decays():
    t0 = time.monotonic()
    n = 256
    net = build_network(netdefs.cycle_edges(n), n)
    k = np.arange(n)
    values = (
        np.sin(2 * np.pi * 3 * k / n)
        + 0.5 * np.sin(2 * np.pi * 7 * k / n)
        + (k >= n // 2)
    )
    pyr = build_pyramid(net, values, seed=7, max_levels=3)
    fractions = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    curve = compression_curve(pyr, fractions)
    errors = [c.rel_error for c in curve]
    assert errors[-1] <= 1e-8
    for a, b in zip(errors, errors[1:]):
        assert b <= a + 1e-12, errors
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(9, f"256-cycle piecewise-smooth: error curve {errors[0]:.3f}"
               f" -> {errors[-1]:.1e}, non-increasing, {elapsed:.1f}s")


def test_criterion_10_tuning_lands_in_band():
    net = build_network(netdefs.grid_edges(16, 16), 256)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(net.n)
    for seed in range(100, 110):
        pyr = build_pyramid(net, values, seed=seed, max_levels=2)
        assert pyr.depth == 2
        for idx, level in enumerate(pyr.levels):
            records = sampler.estimate_tuning(
                level.network, seed=pyr.seed + idx + 1
            )
            chosen = min(records, key=lambda r: (r.objective, -r.q))
            assert chosen.q == level.q_tuning
            ratio_w = level.q_prime / level.next_network.w_max
            ratio_b = level.q_prime * chosen.one_over_beta_tilde
            assert 0.1 <= ratio_w <= 10.0, (seed, idx, ratio_w)
            assert 0.1 <= ratio_b <= 10.0, (seed, idx, ratio_b)
            shrink = level.next_network.n / level.network.n
            assert 0.1 <= shrink <= 0.9, (seed, idx, shrink)
    _report(10, "10 seeds on 16x16 grid: q'/w_max and q'/beta in [0.1,10], "
                "level shrink in [0.1,0.9]")
