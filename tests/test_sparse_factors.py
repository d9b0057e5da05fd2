"""Sparse factorization of sparse levels: SuperLU and the dense LU give the
same solves, and the checks of :class:`oracle.CheckedLU` hold on both.

A solve's path is picked by the density rule (:func:`oracle.sparse_pays`)
in the library, and by the type of the matrix handed to ``CheckedLU`` in
the references below: a dense array factors densely, a sparse matrix
sparsely."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from forestnets import cli, oracle
from forestnets import coarsegrain as cg
from forestnets import wavelets as wv
from forestnets.errors import SingularSystem
from forestnets.network import Network, build_network

from netdefs import grid_edges

REL = 1e-13


def grid_net(rng, side):
    """A side x side grid with symmetric weights in [0.5, 2]."""
    pairs = grid_edges(side, side)[::2]
    w = rng.uniform(0.5, 2.0, len(pairs))
    edges = [(x, y, c) for (x, y, _), c in zip(pairs, w)]
    edges += [(y, x, c) for (x, y, _), c in zip(pairs, w)]
    return build_network(edges, side * side)


def digraph_net(rng, n, extra):
    """A strongly connected digraph: a directed n-cycle plus ``extra``
    random arcs out of each vertex, each arc with its own weight."""
    arcs = {(v, (v + 1) % n) for v in range(n)}
    for v in range(n):
        targets = rng.choice(n, min(extra, n), replace=False)
        arcs |= {(v, int(u)) for u in targets if u != v}
    return build_network(
        [(s, d, rng.uniform(0.1, 10.0)) for s, d in sorted(arcs)], n
    )


@st.composite
def networks(draw):
    """Grids and digraphs on both sides of the density rule: below 128
    vertices, and at 128-300 vertices from under 2% to over 10% dense."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return grid_net(rng, draw(st.integers(4, 17))), rng
    n = draw(st.integers(20, 300))
    return digraph_net(rng, n, draw(st.integers(0, 30))), rng


@st.composite
def kept_sets(draw, net, rng):
    """A kept set whose dropped set is of one of three kinds: random,
    one-vertex clusters only, or one cluster holding every dropped vertex
    (see :func:`coarsegrain._cluster_sum`)."""
    kind = draw(st.sampled_from(["random", "one-vertex", "one cluster"]))
    if kind == "one-vertex":
        dropped = one_vertex_clusters(net, rng)
    elif kind == "one cluster":
        dropped = one_cluster(net, rng, draw(st.integers(1, net.n - 1)))
    else:
        dropped = rng.choice(net.n, draw(st.integers(1, net.n - 1)), replace=False)
    return np.setdiff1d(np.arange(net.n), dropped)


def one_vertex_clusters(net, rng):
    """A dropped set with no edge inside it, drawn greedily in a random
    order: every dropped vertex is a cluster of its own."""
    blocked = np.zeros(net.n, dtype=bool)
    dropped = []
    for v in rng.permutation(net.n).tolist():
        if not blocked[v]:
            dropped.append(v)
            blocked[v] = True
            blocked[net.dst[net.src == v]] = True
            blocked[net.src[net.dst == v]] = True
    return dropped


def one_cluster(net, rng, size):
    """A dropped set of ``size`` vertices joined into one cluster: a
    breadth-first ball around a random vertex, along edges either way."""
    ball = {int(rng.integers(net.n))}
    frontier = list(ball)
    while len(ball) < size and frontier:
        nxt = []
        for v in frontier:
            for u in np.concatenate([net.dst[net.src == v], net.src[net.dst == v]]):
                if len(ball) < size and int(u) not in ball:
                    ball.add(int(u))
                    nxt.append(int(u))
        frontier = nxt
    return sorted(ball)


def close(a, b, scale=0.0):
    """``a`` matches ``b`` to ``REL`` of the larger of ``max |b|`` and
    ``scale``, the size of what cancelled into ``b``."""
    return np.abs(a - b).max() <= REL * max(np.abs(b).max(), scale)


def dense_lu(M):
    return oracle.CheckedLU(np.asarray(M), "M")


def nnz(net, part):
    inside = np.isin(net.src, part) & np.isin(net.dst, part)
    return int(inside.sum()) + part.size


@settings(max_examples=30, deadline=None)
@given(drawn=networks(), data=st.data())
def test_sparse_and_dense_factors_agree(drawn, data):
    net, rng = drawn
    n, L = net.n, net.L
    keep = data.draw(kept_sets(net, rng))
    red = cg.ReducedNetwork(net, keep)
    k, d = red.kept, red.dropped
    assert scipy.sparse.issparse(red._lu.M) == oracle.sparse_pays(d.size, nnz(net, d))

    # the Schur complement and the hitting times
    A = dense_lu(-L[np.ix_(d, d)])
    Lbar = L[np.ix_(k, k)] + L[np.ix_(k, d)] @ A.solve(L[np.ix_(d, k)])
    assert close(red._complement(), Lbar, net.w_max)  # rows sum to 0
    assert close(red.hitting_times[d], A.solve(np.ones(d.size)))

    # killed_lu, plain, on free vertices and transposed
    q = float(rng.uniform(0.1, 10.0)) * net.w_max
    rhs = rng.normal(size=(n, 3))
    M = q * np.eye(n) - L
    assert close(oracle.killed_lu(net, q).solve(rhs), dense_lu(M).solve(rhs))
    assert close(
        oracle.killed_lu(net, q, transpose=True).solve(rhs), dense_lu(M.T).solve(rhs)
    )
    free = np.sort(rng.choice(n, data.draw(st.integers(1, n)), replace=False))
    lu = oracle.killed_lu(net, q, free)
    assert scipy.sparse.issparse(lu.M) == oracle.sparse_pays(free.size, nnz(net, free))
    assert close(lu.solve(rhs[free]), dense_lu(M[np.ix_(free, free)]).solve(rhs[free]))

    # one analysis and reconstruction, against a level that reads dense
    # matrices only
    f = rng.normal(size=n)
    level = wv.PyramidLevel.of(net, keep, q)
    approx, detail = level.analyze(f)
    dense_net = Network(np.column_stack([net.src, net.dst, net.w]), n)
    dense_net.generator = dense_net.L
    dense = wv.PyramidLevel.of(dense_net, keep, q)
    dense.reduction._lu = A
    reduced = dense.reduction.network
    reduced.generator = reduced.L
    back = level.reconstruct(approx, detail)
    assert close(back, dense.reconstruct(approx, detail))
    assert np.abs(back - f).max() <= 1e-10 * np.abs(f).max()


def test_the_rule_picks_each_side():
    # guard: the property above sees both paths
    rng = np.random.default_rng(0)
    grid = grid_net(rng, 12)
    assert scipy.sparse.issparse(oracle.killed_lu(grid, 1.0).M)
    assert scipy.sparse.issparse(grid.generator)
    small = grid_net(rng, 11)  # 121 vertices, below the size floor
    assert isinstance(oracle.killed_lu(small, 1.0).M, np.ndarray)
    assert small.generator is small.L
    dense = digraph_net(rng, 150, 20)  # about 14% of n^2
    assert isinstance(oracle.killed_lu(dense, 1.0).M, np.ndarray)


def test_sparse_singular_matrix_raises():
    M = scipy.sparse.csc_array(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularSystem, match="^M is singular"):
        oracle.CheckedLU(M, "M")


def test_sparse_singular_system_exits_4(monkeypatch, tmp_path, capsys):
    # SuperLU's "exactly singular" on a command line: one error line,
    # exit 4; a column of explicit zeros makes the real factor singular
    real = scipy.sparse.linalg.splu

    def singular(M):
        M = M.copy()
        M.data[M.indptr[0] : M.indptr[1]] = 0.0
        return real(M)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    path = tmp_path / "grid.tsv"
    path.write_text("".join(f"{s}\t{t}\t{w!r}\n" for s, t, w in grid_edges(12, 12)))
    assert cli.main(["oracle", "hitting", str(path), "--targets", "0"]) == 4
    err = capsys.readouterr().err
    assert err == "error: -L_DD is singular (zero pivot)\n"


def test_sparse_overflow_raises():
    M = scipy.sparse.csc_array(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(SingularSystem, match="^M overflows"):
        oracle.CheckedLU(M, "M")
    # q + exit rate overflows on the diagonal of the sparse block
    grid = build_network(grid_edges(12, 12, 1e307), 144)
    with pytest.raises(SingularSystem, match="^q Id - L overflows"):
        oracle.killed_lu(grid, 1.7e308)


def test_sparse_solve_checks_several_columns():
    # the sparse twin of test_solve_dropped_checks_several_columns: SuperLU
    # factors of a slightly wrong matrix fail the residual check on the
    # combination of the columns, as on a single one
    red = cg.ReducedNetwork(build_network(grid_edges(16, 16), 256), range(0, 256, 3))
    M = red._lu.M
    assert scipy.sparse.issparse(M)
    red._lu.factors = scipy.sparse.linalg.splu(M * (1.0 + 1e-6))
    m = red.dropped.size
    for rhs in (np.ones(m), np.eye(m), np.column_stack([np.zeros(m), np.ones(m)])):
        with pytest.raises(SingularSystem, match="^-L_DD residual"):
            red.solve_dropped(rhs)


def full_matrix_transfer_current(net, q, edges, B=(), signed=False):
    """transfer_current as it was: the endpoint columns of an n x n G."""
    q, roots = oracle.check_q(net, q, B)
    tail, head = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    free = np.setdiff1d(np.arange(net.n), roots)
    cols = np.flatnonzero(np.isin(free, np.concatenate([tail, head])))
    G, L = np.zeros((net.n, net.n)), net.L
    G[np.ix_(free, free[cols])] = oracle.killed_lu(net, q, free).solve(
        np.eye(free.size)[:, cols]
    )
    J = G[:, tail] * L[tail, head]
    if signed:
        J = J - G[:, head] * L[head, tail]
    return J[tail] - J[head]


@pytest.mark.parametrize("side", [5, 12])
@pytest.mark.parametrize(
    "edges, B, signed",
    [
        ([(0, 1)], (), False),
        ([(1, 0), (6, 7), (3, 4)], (), False),
        ([(0, 1), (2, 3)], (), True),
        ([(0, 1), (1, 2)], (1,), False),
        ([(1, 2), (6, 7)], (0, 12), True),
    ],
)
def test_transfer_current_matches_the_full_matrix_formula(side, edges, B, signed):
    # byte for byte, on the dense (5x5) and the sparse (12x12) factor path
    net = grid_net(np.random.default_rng(side), side)
    got = oracle.transfer_current(net, 1.5, edges, B, signed=signed)
    want = full_matrix_transfer_current(net, 1.5, edges, B, signed)
    assert got.tobytes() == want.tobytes()


def test_edge_inclusion_allocates_far_less_than_n_squared():
    # the edge query solves its endpoint columns alone: no n x n G, no
    # identity and, on this sparse grid, no dense q Id - L
    net = grid_net(np.random.default_rng(0), 64)
    n = net.n
    tracemalloc.start()
    try:
        p = oracle.edge_inclusion_prob(net, 1.0, [(0, 1), (5, 6), (77, 78)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < p < 1.0
    assert peak < n * n * 8 / 16


def test_return_speeds_allocate_far_less_than_a_kept_by_n_block():
    # the speeds read the kept-to-dropped edges alone: no kept rows of
    # the skeleton are formed
    rng = np.random.default_rng(0)
    net = grid_net(rng, 32)
    red = cg.ReducedNetwork(net, rng.choice(net.n, round(0.65 * net.n), replace=False))
    red.hitting_times
    tracemalloc.start()
    try:
        beta, gamma = red.speeds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < beta < np.inf and 0.0 < gamma < np.inf
    assert peak < red.kept.size * net.n * 8 / 16


# ---------------------------------------------------------------------------
# guards: one builder and one edge slicer cut every block of L, entry for
# entry as the dense matrices they stand for


def block_nets():
    """Grids and digraphs on both sides of the density rule: 121 and 144
    grid vertices around the size floor, and a sparse and a dense digraph
    of at least 128 vertices."""
    rng = np.random.default_rng(3)
    return {
        "grid 11x11": grid_net(rng, 11),
        "grid 12x12": grid_net(rng, 12),
        "grid 16x16": grid_net(rng, 16),
        "digraph 60": digraph_net(rng, 60, 4),
        "digraph 200 sparse": digraph_net(rng, 200, 3),
        "digraph 150 dense": digraph_net(rng, 150, 20),
    }


BLOCK_NETS = block_nets()


def parts(net):
    """Every vertex, then random sorted subsets above and below the size
    floor when the network has room for both."""
    rng = np.random.default_rng(net.n)
    out = [None]
    for size in {min(net.n - 1, 130), net.n // 2}:
        out.append(np.sort(rng.choice(net.n, size, replace=False)))
    return out


@pytest.mark.parametrize("name", sorted(BLOCK_NETS))
@pytest.mark.parametrize("q", [0.0, 1.7])
@pytest.mark.parametrize("transpose", [False, True])
def test_block_is_the_dense_block_entry_for_entry(name, q, transpose):
    net = BLOCK_NETS[name]
    for part in parts(net):
        ids = np.arange(net.n) if part is None else part
        want = q * np.eye(ids.size) - net.L[np.ix_(ids, ids)]
        want = want.T if transpose else want
        M = oracle.block(net, part, q, transpose=transpose)
        assert scipy.sparse.issparse(M) == oracle.sparse_pays(ids.size, nnz(net, ids))
        got = M.toarray() if scipy.sparse.issparse(M) else M
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(BLOCK_NETS))
def test_edges_between_scatter_to_the_dense_block(name):
    net = BLOCK_NETS[name]
    rng = np.random.default_rng(1)
    for _ in range(4):
        rows = np.sort(rng.choice(net.n, int(rng.integers(1, net.n)), replace=False))
        cols = np.sort(rng.choice(net.n, int(rng.integers(1, net.n)), replace=False))
        for r, c in ((rows, None), (rows, cols), (cols, rows)):
            cc = r if c is None else c
            s, t, w = oracle.edges_between(net, r, c)
            got = np.zeros((r.size, cc.size))
            got[s, t] = w
            want = net.L[np.ix_(r, cc)].copy()
            want[r[:, None] == cc[None, :]] = 0.0  # the diagonal of L
            assert np.array_equal(got, want)
            # in the order of the edge arrays, so the blocks built from them
            # are built in the same order as before
            assert np.all(np.diff(r[s] * net.n + cc[t]) > 0)


@pytest.mark.parametrize("side", [5, 12])
def test_sparsify_generator_rows_are_those_of_the_full_generator(side):
    net = grid_net(np.random.default_rng(side), side)
    red = cg.ReducedNetwork(net, range(0, net.n, 2))
    W = red.network.L.copy()
    np.fill_diagonal(W, 0.0)
    rng = np.random.default_rng(0)
    for i, j in zip(*np.nonzero(W)):
        if rng.random() < 0.3:
            W[i, j] = 0.0  # rates taken out by earlier removals
    full = W.copy()
    np.fill_diagonal(full, -W.sum(axis=1))
    for x in range(W.shape[0]):
        assert cg._generator_row(W, x).tobytes() == full[x].tobytes()


# ---------------------------------------------------------------------------
# the Schur complement summed by clusters of dropped vertices


def dense_schur(net, k):
    L, d = net.L, np.setdiff1d(np.arange(net.n), k)
    X = dense_lu(-L[np.ix_(d, d)]).solve(L[np.ix_(d, k)])
    return L[np.ix_(k, k)] + L[np.ix_(k, d)] @ X


def check_cluster_sum(net, keep):
    red = cg.ReducedNetwork(net, keep)
    Lbar = red._complement()
    want = dense_schur(net, red.kept)
    # stored sparse exactly when the density rule picks it for Lbar
    assert scipy.sparse.issparse(Lbar) == oracle.sparse_pays(
        want.shape[0], np.count_nonzero(want)
    )
    got = Lbar.toarray() if scipy.sparse.issparse(Lbar) else Lbar
    assert np.abs(got - want).max() <= REL * net.w_max
    # and the network takes its rates without densifying them
    assert ("L" in vars(red.network)) == (not scipy.sparse.issparse(Lbar))
    return red


@pytest.mark.parametrize("side", [16, 20, 24])
def test_cluster_sum_on_each_kind_of_dropped_set(side):
    # deterministic cases that take the cluster sum: a checkerboard drops
    # one-vertex clusters only, a square block one cluster, a random half a
    # mix, a square block walled off by a kept row and column beside a
    # random half of the rest one large cluster among small ones, and every
    # row but the first one cluster of nearly every vertex; the complement
    # is sparse by the rule in some of them
    rng = np.random.default_rng(side)
    net = grid_net(rng, side)
    r, c = np.divmod(np.arange(net.n), side)
    h = side // 2
    rest = np.flatnonzero((r > h) | (c > h))
    for dropped in (
        np.flatnonzero((r + c) % 2 == 0),
        np.flatnonzero((r < side - 4) & (c < side - 4)),
        rng.choice(net.n, net.n // 2, replace=False),
        np.union1d(
            np.flatnonzero((r < h) & (c < h)),
            np.random.default_rng(side + 1).choice(rest, rest.size // 2, replace=False),
        ),
        np.flatnonzero(r > 0),
    ):
        keep = np.setdiff1d(np.arange(net.n), dropped)
        assert oracle.sparse_pays(dropped.size, nnz(net, np.sort(dropped)))
        check_cluster_sum(net, keep)
    digraph = digraph_net(rng, 300, 2)
    check_cluster_sum(digraph, np.sort(rng.choice(300, 120, replace=False)))
    check_cluster_sum(digraph, one_vertex_clusters(digraph, rng))


def test_one_giant_cluster_costs_what_a_sparse_solve_does():
    # a 64x64 grid keeping one row drops 4032 vertices in one cluster;
    # batched, padded to 4096, its inverse alone would take 128 MiB
    net = grid_net(np.random.default_rng(5), 64)
    tracemalloc.start()
    try:
        Lbar = cg.schur_complement(net, np.arange(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(Lbar.sum(axis=1)).max() <= REL * net.w_max * 64
    assert peak < 16 * 2**20
