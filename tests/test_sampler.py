"""Sampler tests: determinism, structural invariants, and agreement with
the exact determinantal laws at moderate sample sizes (the acceptance suite
repeats the heavy versions)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestnets import config, oracle, sampler
from forestnets.errors import InvalidParams, InvalidStart
from forestnets.network import build_network

import forest_enum as fe
import netdefs


def test_same_seed_same_forest(two_asym):
    a = sampler.wilson_sample(two_asym, 3.0, seed=42)
    b = sampler.wilson_sample(two_asym, 3.0, seed=42)
    assert np.array_equal(a.parent, b.parent)


def test_sample_index_varies_forest(path3):
    draws = {
        tuple(sampler.wilson_sample(path3, 1.0, seed=1, sample_index=i).parent)
        for i in range(50)
    }
    assert len(draws) > 1


def test_forced_roots_always_roots(path5):
    for i in range(100):
        f = sampler.wilson_sample(path5, 0.5, B=[2], seed=9, sample_index=i)
        assert f.parent[2] == -1
        assert 2 in f.roots


def test_forest_structure(path5):
    # every non-root points along an existing edge; no cycles
    for i in range(50):
        f = sampler.wilson_sample(path5, 1.0, seed=4, sample_index=i)
        for x, p in enumerate(f.parent):
            if p != -1:
                assert path5.L[x, int(p)] > 0.0
        # root_of reaches a parent-less vertex for everyone: no cycles
        assert np.all(f.parent[f.root_of] == -1)


def test_q_zero_needs_roots(path3):
    with pytest.raises(InvalidParams):
        sampler.wilson_sample(path3, 0.0, seed=1)
    f = sampler.wilson_sample(path3, 0.0, B=[0], seed=1)
    assert np.array_equal(f.roots, [0])  # no killing: the only root is B


def test_partition_blocks(path3):
    f = sampler.RootedForest(
        q=1.0, forced_roots=(), parent=np.array([-1, 0, 1])
    )
    assert np.array_equal(f.root_of, [0, 0, 0])
    assert [b.tolist() for b in f.blocks()] == [[0, 1, 2]]
    g = sampler.RootedForest(
        q=1.0, forced_roots=(), parent=np.array([-1, 2, -1])
    )
    assert np.array_equal(g.partition, [0, 1, 1])


def _reference_root_of(parent):
    # follow each vertex's parents to its root, filling in every vertex
    # passed on the way
    parent = parent.tolist()
    out = [-1] * len(parent)
    for v in range(len(parent)):
        trail, x = [], v
        while out[x] == -1 and parent[x] != -1:
            trail.append(x)
            x = parent[x]
        root = x if out[x] == -1 else out[x]
        for t in trail + [x]:
            out[t] = root
    return out


def _check_against_reference(forest):
    root_of = _reference_root_of(forest.parent)
    labels = {r: i for i, r in enumerate(sorted(set(root_of)))}
    assert forest.root_of.dtype == np.int64
    assert forest.root_of.tolist() == root_of
    assert forest.partition.dtype == np.int64
    assert forest.partition.tolist() == [labels[r] for r in root_of]


@pytest.mark.parametrize("q", [0.05, 0.5, 2.0, 50.0])
def test_root_of_and_partition_match_a_reference_walk_up(q):
    net = build_network(netdefs.grid_edges(5, 6), 30)
    for i in range(20):
        _check_against_reference(sampler.wilson_sample(net, q, seed=8, sample_index=i))


@pytest.mark.parametrize("n", [config.MAX_VERTICES, config.MAX_VERTICES - 1])
def test_root_of_and_partition_on_the_deepest_and_the_flattest_forests(n):
    # 4,095 vertices is the least n whose depth n - 1 needs all
    # n.bit_length() jumps
    up_path = np.append(np.arange(1, n), -1)  # depth n - 1, rooted at n - 1
    down_path = np.arange(-1, n - 1)  # depth n - 1, rooted at 0
    star = np.zeros(n, dtype=np.int64)
    star[0] = -1
    two_paths = np.concatenate([np.arange(-1, 9), np.arange(9, 19)])
    two_paths[10] = -1  # 0 <- 1 <- ... <- 9 and 10 <- 11 <- ... <- 19
    for parent in (up_path, down_path, star, two_paths):
        _check_against_reference(
            sampler.RootedForest(q=1.0, forced_roots=(), parent=parent)
        )


def test_forest_histogram_matches_exact_law(two_asym):
    want = fe.forest_law(*netdefs.TWO_ASYM, q=3.0)
    want_by_parent = {phi.parent: p for phi, p in want.items()}
    counts: dict[tuple, int] = {}
    N = 4000
    for i in range(N):
        f = sampler.wilson_sample(two_asym, 3.0, seed=11, sample_index=i)
        key = tuple(int(x) for x in f.parent)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == set(want_by_parent)
    for key, c in counts.items():
        p = want_by_parent[key]
        band = 3.0 * np.sqrt(p * (1 - p) / N)
        assert abs(c / N - p) <= band + 1e-12, key


def test_empirical_stats_against_oracle(two_asym):
    st = sampler.empirical_stats(two_asym, 3.0, n_samples=5000, seed=7)
    assert st.chi2_pvalue > 1e-3
    for x in range(2):
        want = oracle.root_inclusion_prob(two_asym, 3.0, [x])
        assert abs(st.root_freq[x] - want) < 0.03
    assert abs(st.edge_freq[(0, 1)] - 1 / 3) < 0.03
    assert abs(st.mean_roots - 1.5) < 0.05


def test_empirical_stats_threads_reproducible(path3):
    a = sampler.empirical_stats(path3, 1.0, n_samples=500, seed=3)
    b = sampler.empirical_stats(path3, 1.0, n_samples=500, seed=3)
    assert a.root_count_hist == b.root_count_hist
    assert np.array_equal(a.root_freq, b.root_freq)
    assert a.edge_freq == b.edge_freq


def test_edge_freq_is_keyed_by_python_ints_in_row_major_order(path5):
    st = sampler.empirical_stats(path5, 1.0, n_samples=200, seed=2)
    keys = list(st.edge_freq)
    assert keys and keys == sorted(keys)
    assert all(type(x) is int and type(y) is int for x, y in keys)
    assert all(f > 0 for f in st.edge_freq.values())


def test_lerw_branch_frequencies(two_asym):
    N = 4000
    freq: dict[tuple, int] = {}
    for i in range(N):
        p = tuple(sampler.loop_erased_walk(two_asym, 3.0, 0, seed=5,
                                           sample_index=i))
        freq[p] = freq.get(p, 0) + 1
    for path, c in freq.items():
        want = oracle.lerw_path_prob(two_asym, 3.0, list(path))
        band = 3.0 * np.sqrt(want * (1 - want) / N)
        assert abs(c / N - want) <= band + 1e-12, path


def test_lerw_with_absorption(path3):
    # walk from 2 with B = {0}: path must end at 0 or be killed outside
    for i in range(50):
        p = sampler.loop_erased_walk(path3, 0.5, 2, B=[0], seed=8,
                                     sample_index=i)
        assert p[0] == 2
        assert len(set(p)) == len(p)
        assert all(v != 0 for v in p[:-1])
    with pytest.raises(InvalidStart):
        sampler.loop_erased_walk(path3, 0.5, 0, B=[0], seed=8)


def test_walk_start_is_read_as_a_vertex_id(path3):
    # the start was range-checked as it came, so 1.0 indexed a bytearray
    # and 1.5 raised TypeError; it is read as every other vertex argument
    for i in range(20):
        want = sampler.loop_erased_walk(path3, 1.0, 1, seed=3, sample_index=i)
        for start in (1.0, np.int64(1)):
            got = sampler.loop_erased_walk(path3, 1.0, start, seed=3, sample_index=i)
            assert got == want and type(got[0]) is int
    with pytest.raises(InvalidParams, match="start vertex is not an integer"):
        sampler.loop_erased_walk(path3, 1.0, 1.5, seed=3)


def test_mean_roots_three_sigma(two_asym):
    N = 5000
    st = sampler.empirical_stats(two_asym, 3.0, n_samples=N, seed=13)
    mean, var = oracle.root_count_moments(two_asym, 3.0)
    assert abs(st.mean_roots - mean) <= 3.0 * np.sqrt(var / N)


def test_sample_with_m_roots_window():
    net = build_network(netdefs.cycle_edges(16), 16)
    iters = []
    for s in range(30):
        res = sampler.sample_with_m_roots(net, 4, seed=s)
        assert res.converged
        k = res.forest.roots.size
        assert 4 - 2 * np.sqrt(4) <= k <= 4 + 2 * np.sqrt(4)
        iters.append(res.iterations)
    assert np.median(iters) <= 5


def test_sample_with_m_roots_returns_the_closest_draw_when_it_misses():
    # on a unit 32-cycle from q0 = 1e-3 w_max the draws at seed 3 have 1,
    # 4, 15 and 15 roots, all below the window 32 +- 2 sqrt(32): the first
    # draw of the closest count is returned, with the q it was drawn at
    net = build_network(netdefs.cycle_edges(32), 32)
    q0 = 1e-3 * net.w_max
    res = sampler.sample_with_m_roots(net, 32, seed=3, q0=q0, max_iters=1)
    want = sampler.wilson_sample(net, q0, seed=3, sample_index=0)
    assert (res.converged, res.iterations, res.q) == (False, 1, q0)
    assert np.array_equal(res.forest.parent, want.parent)
    res = sampler.sample_with_m_roots(net, 32, seed=3, q0=q0, max_iters=4)
    q2 = q0 * 32 / 1 * 32 / 4
    want = sampler.wilson_sample(net, q2, seed=3, sample_index=2)
    assert (res.converged, res.iterations, res.q) == (False, 4, q2)
    assert np.array_equal(res.forest.parent, want.parent)
    assert want.roots.size == 15


def test_sample_with_m_roots_validation(path3):
    with pytest.raises(InvalidParams):
        sampler.sample_with_m_roots(path3, 0, seed=1)
    with pytest.raises(InvalidParams):
        sampler.sample_with_m_roots(path3, 4, seed=1)


def test_restricted_equilibrium(path3):
    np.testing.assert_allclose(
        sampler.restricted_equilibrium(path3, [0, 1]), [0.5, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(
        sampler.restricted_equilibrium(path3, [2]), [1.0]
    )


def test_conditional_root_equilibrium(path3):
    rep = sampler.conditional_root_equilibrium_check(
        path3, 1.0, 8000, seed=3
    )
    assert rep.entries  # at least one partition seen often enough
    assert rep.max_tv <= 0.05


@settings(max_examples=40, deadline=None)
@given(
    graph=netdefs.digraphs(min_n=3, max_n=6),
    q=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**32),
)
def test_conditional_root_equilibrium_reports_each_partition_once(graph, q, seed):
    edges, n = graph
    net = build_network(edges, n)
    rep = sampler.conditional_root_equilibrium_check(
        net, q, 200, seed=seed, min_count=1
    )
    keys = [e.blocks for e in rep.entries]
    assert len({frozenset(k) for k in keys}) == len(keys)
    for key in keys:
        # blocks ascending, listed by their least vertex
        assert list(key) == sorted(key)
        assert all(list(b) == sorted(b) for b in key)
    assert keys == sorted(keys)
    assert sum(e.count for e in rep.entries) == 200


@pytest.mark.parametrize("n_samples", [0, -5])
def test_conditional_root_equilibrium_refuses_no_samples(two_asym, n_samples):
    with pytest.raises(InvalidParams, match="n_samples must be >= 1"):
        sampler.conditional_root_equilibrium_check(two_asym, 1.0, n_samples, seed=1)


def test_estimate_tuning_two_asym(two_asym):
    # at q = 3: E[|V-R|/(1+|R|)] = 1/4 so w_tilde = 3/4;
    # E[|V-R|/|R|] = 1/2 so 1/beta_tilde = 1/4
    recs = sampler.estimate_tuning(two_asym, [3.0], n_samples=3000, seed=9)
    assert recs[0].w_tilde == pytest.approx(0.75, abs=0.05)
    assert recs[0].one_over_beta_tilde == pytest.approx(0.25, abs=0.03)


def test_estimate_tuning_default_grid(two_asym):
    recs = sampler.estimate_tuning(two_asym, n_samples=4, seed=2)
    assert [r.q for r in recs] == [2.0 * 2.0 ** (-k) for k in range(7)]


def test_estimate_tuning_threads_deterministic(path3):
    a = sampler.estimate_tuning(path3, n_samples=8, seed=5)
    b = sampler.estimate_tuning(path3, n_samples=8, seed=5)
    assert [(r.q, r.w_tilde, r.one_over_beta_tilde) for r in a] == [
        (r.q, r.w_tilde, r.one_over_beta_tilde) for r in b
    ]


def exact_tuning_factors(net, q):
    """The exact means and variances of the two per-draw terms of
    :func:`sampler.estimate_tuning`, ``(n - k)/(1 + k)`` and ``(n - k)/k``
    for ``k`` roots, from the exact root-count law."""
    law = oracle.root_count_law(net, q)
    k = law.counts[law.counts >= 1].astype(float)
    p = law.pmf[law.counts >= 1]
    out = []
    for term in ((net.n - k) / (1.0 + k), (net.n - k) / k):
        mean = float(p @ term)
        out.append((mean, float(p @ (term - mean) ** 2)))
    return out


TUNING_NETS = {
    **netdefs.SMALL_GRAPHS,
    "grid3x3": (9, netdefs.grid_edges(3, 3)),
    "cycle7": (7, netdefs.cycle_edges(7, 2.0)),
}


@pytest.mark.parametrize("name", sorted(TUNING_NETS))
def test_estimate_tuning_factors_match_the_exact_law(name):
    # each factor of the objective, q E[(n-k)/(1+k)] and E[(n-k)/k] / w_max,
    # against its exact value within 4.5 standard errors of the mean
    n, edges = TUNING_NETS[name]
    net = build_network(edges, n)
    grid = [net.w_max, net.w_max / 8.0, net.w_max / 64.0]
    draws = 2000
    records = sampler.estimate_tuning(net, grid, n_samples=draws, seed=11)
    for rec, q in zip(records, grid):
        (w_mean, w_var), (b_mean, b_var) = exact_tuning_factors(net, q)
        w_band = q * 4.5 * np.sqrt(w_var / draws)
        b_band = 4.5 * np.sqrt(b_var / draws) / net.w_max
        assert abs(rec.w_tilde - q * w_mean) <= w_band + 1e-12 * q * w_mean
        assert abs(rec.one_over_beta_tilde - b_mean / net.w_max) <= (
            b_band + 1e-12 * b_mean / net.w_max
        )


def test_chosen_tuning_takes_the_least_objective_then_the_largest_q():
    rec = lambda q, obj: sampler.TuningRecord(q, 0.0, 0.0, obj, 1.0)  # noqa: E731
    records = [rec(4.0, 0.5), rec(2.0, 0.25), rec(1.0, 0.25), rec(0.5, 0.75)]
    assert sampler.chosen_tuning(records) is records[1]
    assert sampler.chosen_tuning(records[2:]) is records[2]


# ---------------------------------------------------------------------------
# random streams


def _reference_generator(seed, sample_index, branch):
    """The stream rule written against numpy's own Philox."""
    key = np.array([seed, sample_index], dtype=np.uint64)
    counter = np.array([0, 0, 0, branch], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(0, 2**64 - 1),
    branch=st.integers(0, 64),
    block=st.integers(1, 5),
)
def test_philox_kernel_matches_numpy(seed, index, branch, block):
    want = _reference_generator(seed, index, branch).random(4 * block)[-4:]
    # the pair sits among other indices and branches
    idx = np.array([[index], [0], [2**64 - 1]], dtype=np.uint64)
    br = np.arange(branch + 1, dtype=np.uint64)
    got = np.stack(sampler._philox_uniforms(seed, idx, br, block), axis=-1)
    assert got.shape == (3, branch + 1, 4)
    assert np.array_equal(got[0, branch], want)
    last = _reference_generator(seed, 2**64 - 1, 0).random(4 * block)[-4:]
    assert np.array_equal(got[2, 0], last)


def test_philox_kernel_extreme_key():
    top = 2**64 - 1
    for branch in (0, 1, top):
        want = _reference_generator(top, top, branch).random(8)
        for block in (1, 2):
            index = np.array([top], dtype=np.uint64)
            br = np.array([branch], dtype=np.uint64)
            got = np.stack(sampler._philox_uniforms(top, index, br, block), -1)
            assert np.array_equal(got[0], want[4 * block - 4:4 * block])


def test_jump_tables_are_cached_python_lists(path3):
    # the sampler walks these tables; a network builds them once
    targets, cumw, rates = path3.adjacency
    assert path3.adjacency[0] is targets
    assert targets == [[1], [0, 2], [1]]
    assert all(type(c) is float for row in cumw for c in row)
    assert type(rates) is list and cumw[1][-1] == 1.0


def _reference_parent(net, q, roots, seed, sample_index):
    """Wilson's algorithm drawing every branch from its own numpy Philox
    generator, with the stream rule of the module docstring."""
    targets, cumw, rates = net.adjacency
    in_forest = np.zeros(net.n, dtype=bool)
    in_forest[list(roots)] = True
    parent = [-1] * net.n
    nxt = [-1] * net.n
    longest = 0
    branch = 0
    for x0 in range(net.n):
        if in_forest[x0]:
            continue
        gen = _reference_generator(seed, sample_index, branch)
        branch += 1
        v, steps = x0, 0
        while True:
            u = gen.random()
            steps += 1
            pk = q / (q + rates[v])
            if u < pk:
                terminal, killed = v, True
                break
            r = (u - pk) / (1.0 - pk)
            i = int(np.searchsorted(cumw[v][:-1], r, side="right"))
            nxt[v] = int(targets[v][i])
            if in_forest[nxt[v]]:
                terminal, killed = nxt[v], False
                break
            v = nxt[v]
        longest = max(longest, steps)
        v = x0
        while v != terminal:
            in_forest[v] = True
            parent[v] = nxt[v]
            v = nxt[v]
        if killed:
            in_forest[terminal] = True
    return parent, longest


def test_long_branches_follow_stream_rule():
    # a small killing rate makes branches far longer than block 1 (4
    # uniforms) and than one refill (64 more); single samples of 16
    # vertices are below the kernel threshold, so each branch reads its
    # whole stream from its own generator
    assert 16 < sampler._KERNEL_MIN <= 40 * 15
    net = build_network(netdefs.cycle_edges(16), 16)
    q = 0.01
    longest = 0
    seeds = [(3, 0), (3, 7), (2**64 - 1, 2**64 - 1), (2**63 + 5, 11)]
    for seed, index in seeds:
        for B in ((), (5,)):
            want, steps = _reference_parent(net, q, B, seed, index)
            got = sampler.wilson_sample(net, q, B, seed=seed, sample_index=index)
            assert got.parent.tolist() == want, (seed, index, B)
            longest = max(longest, steps)
    assert longest > 4 + 64
    # the batched path (block 1 from the kernel) agrees as well, and
    # its counts match a plain loop over the reference forests
    N = 40
    stats = sampler.empirical_stats(net, q, n_samples=N, seed=3)
    hist, is_root, edges = {}, np.zeros(16), {}
    for i in range(N):
        parent, _ = _reference_parent(net, q, (), 3, i)
        k = parent.count(-1)
        hist[k] = hist.get(k, 0) + 1
        for x, p in enumerate(parent):
            if p == -1:
                is_root[x] += 1
            else:
                edges[(x, p)] = edges.get((x, p), 0) + 1
    assert stats.root_count_hist == hist
    assert np.array_equal(stats.root_freq, is_root / N)
    assert stats.edge_freq == {e: c / N for e, c in edges.items()}


BUF = sampler._BUF


@pytest.mark.parametrize("length", sorted({4, 5, 4 + BUF, 5 + BUF, BUF, BUF + 1}))
def test_branches_at_block_and_refill_edges_follow_stream_rule(length):
    # a directed cycle whose vertex `length` is a forced root: the first
    # branch walks 0, 1, 2, ... and reads exactly `length` uniforms unless
    # it is killed before vertex length - 1 (kill probability 0.1 a step).
    # Batched, block 1 holds 4 of them and each refill past it _BUF more;
    # one sample at a time, each refill holds _BUF from the first.
    n = length + 1
    net = build_network([(x, (x + 1) % n, 1.0) for x in range(n)], n)
    q, B, N = 1.0 / 9.0, (length,), 200
    want = [_reference_parent(net, q, B, 5, i)[0] for i in range(N)]
    full = [p for p in want if p[length - 2] == length - 1]
    assert len(full) >= 20  # first branches that read all `length`
    # batched: block 1 from the kernel, read in place
    assert N * length >= sampler._KERNEL_MIN
    (got,) = sampler._sample_parents(net, q, list(B), 5, 0, N)
    assert got.tolist() == want
    # one sample at a time, below the kernel threshold: each branch reads
    # its whole stream from the thread's Philox
    assert length < sampler._KERNEL_MIN
    for i in range(N):
        f = sampler.wilson_sample(net, q, B, seed=5, sample_index=i)
        assert f.parent.tolist() == want[i], i


@pytest.mark.parametrize("chunk", [16 * 16, 4 * 16])
def test_interleaved_samplers_draw_what_each_draws_alone(monkeypatch, chunk):
    # two sampling generators in one thread, with different seeds, rates
    # and first indices, advanced a chunk at a time in turns, share the
    # thread's Philox; long branches make most of them continue past
    # block 1.
    # Chunks of 16 samples of 16 branches take block 1 from the kernel,
    # chunks of 4 fall below the kernel threshold.
    monkeypatch.setattr(sampler, "_CHUNK", chunk)
    net = build_network(netdefs.cycle_edges(16), 16)
    runs = [(0.01, 3, 0), (0.05, 2**64 - 1, 100)]

    def sampling(q, seed, first):
        return sampler._sample_parents(net, q, [], seed, first, 48)

    alone = [np.concatenate(list(sampling(*r))) for r in runs]
    a, b = (sampling(*r) for r in runs)
    turns = list(zip(a, b))
    assert len(turns) == 48 * 16 // chunk
    for k, got in enumerate(zip(*turns)):
        assert np.array_equal(np.concatenate(got), alone[k])
    for i in (0, 47):
        for (q, seed, first), parents in zip(runs, alone):
            want, _ = _reference_parent(net, q, (), seed, first + i)
            assert parents[i].tolist() == want


def test_threads_draw_what_each_draws_alone():
    # each thread continues its branches from its own Philox: samplers run
    # in six threads at once, switching every microsecond, draw the
    # forests that they draw one after another
    net = build_network(netdefs.cycle_edges(16), 16)
    runs = [(0.01 * (k + 1), 2**63 + k, 50 * k) for k in range(6)]

    def draw(q, seed, first):
        (batch,) = sampler._sample_parents(net, q, [], seed, first, 40)
        single = [
            sampler.wilson_sample(net, q, seed=seed, sample_index=first + i).parent
            for i in range(10)
        ]
        return batch.tolist(), np.array(single).tolist()

    alone = [draw(*r) for r in runs]
    got = [None] * len(runs)

    def work(k):
        got[k] = draw(*runs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(runs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == alone


def test_seeds_above_two_to_63_are_distinct(two_asym):
    a, b = 2**63, 2**63 + 5
    fa = [tuple(sampler.wilson_sample(two_asym, 3.0, seed=a, sample_index=i).parent)
          for i in range(40)]
    fb = [tuple(sampler.wilson_sample(two_asym, 3.0, seed=b, sample_index=i).parent)
          for i in range(40)]
    assert fa != fb


@pytest.mark.parametrize("kwargs", [
    {"seed": -1},
    {"seed": 2**64},
    {"seed": 1, "sample_index": -1},
    {"seed": 1, "sample_index": 2**64},
    {"seed": 1.5},
])
def test_seed_domain(two_asym, kwargs):
    with pytest.raises(InvalidParams):
        sampler.wilson_sample(two_asym, 3.0, **kwargs)


def test_seed_domain_batched(two_asym):
    with pytest.raises(InvalidParams):
        sampler.empirical_stats(two_asym, 3.0, n_samples=10, seed=-1)
    with pytest.raises(InvalidParams):
        sampler.estimate_tuning(two_asym, [1.0], n_samples=4, seed=2**64)
    with pytest.raises(InvalidParams):
        sampler.loop_erased_walk(two_asym, 3.0, 0, seed=1, sample_index=-1)
    # the last index of a batch still counts
    sampler.empirical_stats(two_asym, 3.0, n_samples=1, seed=2**64 - 1)


def test_generator_as_forced_roots(path3):
    f = sampler.wilson_sample(path3, 1.0, (v for v in [0, 1]), seed=1)
    assert f.forced_roots == (0, 1)
    assert f.parent[0] == -1 and f.parent[1] == -1
    with pytest.raises(InvalidParams):
        sampler.wilson_sample(path3, 1.0, (v for v in [0, 0]), seed=1)


def test_chi2_matches_scipy_stats_chisquare():
    # the statistic and p-value of scipy.stats.chisquare, which the CLI no
    # longer imports; every expected count is at least 5, so no cell merges
    import scipy.stats

    rng = np.random.default_rng(11)
    n = 1000
    for _ in range(200):
        k = int(rng.integers(2, 8))
        pmf = 0.5 * rng.dirichlet(np.ones(k)) + 0.5 / k
        law = oracle.RootCountLaw(np.arange(k), pmf, mean=0.0, variance=0.0)
        obs = rng.multinomial(n, pmf).astype(float)
        got = sampler._chi2_against_law(dict(enumerate(obs)), law, n)
        exp = pmf * n
        exp *= obs.sum() / exp.sum()
        want = scipy.stats.chisquare(obs, exp)
        assert got == pytest.approx((want[0], want[1]), rel=1e-14)


def test_step_budget_is_the_lower_bound_of_the_walk_steps(monkeypatch):
    # exit rates 2 and 1: on two vertices the two-step bound is the exact
    # mean number of steps of a rootless draw, sum_x G(x, x), which is
    # above max(1, 1 / q); a draw with a forced root takes one step.  On a
    # directed unit 3-cycle no walk returns in two steps, and the first walk's
    # 1 / q steps before it is killed is the larger bound
    net = build_network([(0, 1, 2.0), (1, 0, 1.0)], 2)
    cycle = build_network([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], 3)

    def mean(q):
        return 2.0 * (q + 1.0) * (q + 2.0) / (q * (q + 3.0))

    cases = [
        (10 * mean(0.5), lambda: sampler.check_sampling_args(net, 0.5, (), 10)),
        (10, lambda: sampler.check_sampling_args(net, 0.5, (0,), 10)),
        (
            4 * (mean(0.5) + mean(2.0)),
            lambda: sampler.check_tuning_args(net, [0.5, 2.0], 4),
        ),
        (mean(0.25), lambda: sampler.check_m_roots_args(net, 1, (), 0.25)),
        (1, lambda: sampler.check_m_roots_args(net, 1, (0,), 1e-300)),
        (4, lambda: sampler.check_sampling_args(cycle, 0.25)),
    ]
    for steps, check in cases:
        monkeypatch.setattr(config, "MAX_WALK_STEPS", steps * (1.0 + 1e-12))
        check()
        monkeypatch.setattr(config, "MAX_WALK_STEPS", steps * (1.0 - 1e-12))
        with pytest.raises(InvalidParams, match=f"needs at least {steps:.3g} walk"):
            check()


def test_m_roots_args_do_not_budget_a_rate_they_do_not_draw_at():
    # the forced roots are checked at a stand-in q = 1, which no draw uses:
    # at exit rates of 1e13 it must not count 1e13 steps against q0
    net = build_network([(0, 1, 1e13), (1, 0, 1e13)], 2)
    assert sampler.check_m_roots_args(net, 1, (), 1e13) == ([], 1e13)
