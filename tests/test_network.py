from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestnets import coarsegrain as cg
from forestnets import config, network
from forestnets.errors import (
    DuplicateEdge,
    ForestnetsError,
    InvalidParams,
    NonPositiveWeight,
    NotIrreducible,
)
from forestnets.network import (
    Network,
    _gth_measure,
    build_network,
    skeleton,
    vertex_set,
)

import netdefs
from reference_network import reference_network


def test_two_asym_basics(two_asym):
    assert two_asym.n == 2
    assert two_asym.w_max == 2.0
    assert np.allclose(two_asym.mu, [1 / 3, 2 / 3], atol=1e-12)
    assert two_asym.reversible


def test_generator_rows_sum_to_zero():
    for name, (n, edges) in netdefs.SMALL_GRAPHS.items():
        net = build_network(edges, n)
        L = net.L
        assert np.abs(L.sum(axis=1)).max() <= 1e-12, name
        off = L - np.diag(np.diag(L))
        assert off.min() >= 0.0, name


def test_invariant_measure_property():
    for name, (n, edges) in netdefs.SMALL_GRAPHS.items():
        net = build_network(edges, n)
        assert np.abs(net.mu @ net.L).max() <= 1e-10, name
        assert abs(net.mu.sum() - 1.0) <= 1e-12, name
        assert net.mu.min() > 0.0, name


def test_reversibility_flags():
    flags = {
        "two_asym": True,
        "cycle3": False,
        "path3": True,
        "star4": True,
        "tri_asym": False,
        "diamond4": True,
        "ring4_asym": False,
        "path5": True,
    }
    for name, (n, edges) in netdefs.SMALL_GRAPHS.items():
        net = build_network(edges, n)
        assert net.reversible == flags[name], name


def test_skeleton_two_asym(two_asym):
    P = skeleton(two_asym)
    assert np.allclose(P, [[0.0, 1.0], [0.5, 0.5]], atol=1e-14)


def test_skeleton_rows_are_probabilities():
    for name, (n, edges) in netdefs.SMALL_GRAPHS.items():
        P = skeleton(build_network(edges, n))
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12, name
        assert P.min() >= 0.0, name


def test_vertex_count_inferred():
    net = build_network([(0, 2, 1.0), (2, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    assert net.n == 3


def test_rejects_nonpositive_weight():
    with pytest.raises(NonPositiveWeight):
        build_network([(0, 1, 0.0), (1, 0, 1.0)], 2)
    with pytest.raises(NonPositiveWeight):
        build_network([(0, 1, -2.0), (1, 0, 1.0)], 2)
    with pytest.raises(NonPositiveWeight):
        build_network([(0, 1, float("nan")), (1, 0, 1.0)], 2)


def test_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        build_network([(0, 1, 1.0), (0, 1, 2.0), (1, 0, 1.0)], 2)


def test_rejects_self_loop():
    with pytest.raises(InvalidParams):
        build_network([(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)], 2)


def test_rejects_not_strongly_connected():
    # 0 -> 1 only: 1 cannot reach 0
    with pytest.raises(NotIrreducible):
        build_network([(0, 1, 1.0)], 2)
    # two components
    with pytest.raises(NotIrreducible):
        build_network(
            [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)], 4
        )


@st.composite
def maybe_connected_digraphs(draw):
    """(edges, n): a digraph on 2 to 8 vertices with random arcs and
    weights in [0.01, 100], often not strongly connected: the arcs may
    include a path from 0 through every vertex (each then forward
    reachable) or a cycle through all; sometimes every arc has its
    reverse."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = {(a, b) for a, b in draw(st.lists(pair, max_size=2 * n)) if a != b}
    spine = draw(st.sampled_from(["none", "path", "cycle"]))
    if spine != "none":
        order = [0] + draw(st.permutations(range(1, n)))
        ends = order[1:] + order[:1] if spine == "cycle" else order[1:]
        pairs |= set(zip(order, ends))
    if draw(st.booleans()):
        pairs |= {(b, a) for a, b in pairs}
    weight = st.floats(0.01, 100.0)
    return [(a, b, draw(weight)) for a, b in sorted(pairs)], n


def _two_searches(n, pairs):
    """The refusal of a search from 0 along the arcs, then against them:
    the message naming the first vertex missed, or None if none is."""
    backward = [(b, a) for a, b in pairs]
    for direction, arcs in (("forward", pairs), ("backward", backward)):
        seen, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for a, b in arcs:
                if a == x and b not in seen:
                    seen.add(b)
                    todo.append(b)
        if len(seen) < n:
            missing = min(set(range(n)) - seen)
            return f"vertex {missing} not {direction}-reachable from 0"
    return None


@settings(max_examples=300, deadline=None)
@given(case=maybe_connected_digraphs(), data=st.data())
def test_reachability_is_that_of_the_two_searches(case, data):
    # guard: one strong-components test accepts exactly the networks that
    # a forward and a backward search from 0 both cover, and a refusal
    # names the vertex the first failing search misses, forward first;
    # for edge lists and rate matrices, with and without a given measure
    edges, n = case
    want = _two_searches(n, [(a, b) for a, b, _ in edges])
    mu = None
    if data.draw(st.booleans()):
        mu = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
        mu /= mu.sum()
    rates = np.zeros((n, n))
    for a, b, w in edges:
        rates[a, b] = w
    builds = [lambda: Network(edges, n, mu)]
    if mu is not None:
        builds.append(lambda: Network.of_rates(rates.copy(), mu))
    for build in builds:
        if want is None:
            assert build().n == n
        else:
            with pytest.raises(NotIrreducible) as info:
                build()
            assert str(info.value) == want


@settings(max_examples=200, deadline=None)
@given(case=maybe_connected_digraphs())
def test_sparsify_support_test_is_the_search_from_0(case):
    # guard: on the symmetric support of a reversible reduction, the
    # sparsification's support test agrees with a search from 0
    edges, n = case
    W = np.zeros((n, n))
    for a, b, w in edges:
        W[a, b] = W[b, a] = w
    pairs = list(zip(*np.nonzero(W)))
    assert cg._support_connected(W) == (_two_searches(n, pairs) is None)


def test_max_vertices_boundary(monkeypatch):
    monkeypatch.setattr(config, "MAX_VERTICES", 3)
    assert build_network(netdefs.PATH3[1], 3).n == 3

    def edges():
        raise AssertionError("edges read before the size check")
        yield

    with pytest.raises(InvalidParams, match="4 vertices"):
        Network(edges(), 4)


def test_weight_lookup(two_asym):
    assert two_asym.L[0, 1] == 2.0
    assert two_asym.L[1, 0] == 1.0
    assert two_asym.w.tolist() == [2.0, 1.0]



@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1.5, 1.0), (1, 0, 1.0)], "edge (0, 1.5) has a non-integral vertex id"),
        ([(0, float("nan"), 1.0)], "edge (0, nan) has a non-integral vertex id"),
        ([(0, 1, 1.0), (1, 2**63, 1.0)], "edge (1, 9223372036854775808) outside 0..1"),
        ([(0, 1, 1.0), (-(2**70), 0, 1.0)], "outside 0..1"),
        ([(0, float("inf"), 1.0)], "edge (0, inf) outside 0..1"),
        ([(0, 1, 1.0), (1, 0)], "triples"),
        ([(0, 1), (1, 0)], "triples"),
        ([(0, 1, 1.0, 2.0)], "triples"),
        ([(0, 1, "x")], "triples"),
        ([(0, 10**400, 1.0)], "triples"),
    ],
)
def test_rejects_bad_ids_and_shapes(edges, message):
    with pytest.raises(InvalidParams) as exc:
        build_network(edges, 2)
    assert message in str(exc.value)


def test_vertex_count_inference_rejects_bad_ids():
    with pytest.raises(InvalidParams, match="non-integral"):
        build_network([(0, 1.5, 1.0), (1.5, 0, 1.0)])
    with pytest.raises(InvalidParams, match="nan"):
        build_network([(0, float("nan"), 1.0)])
    with pytest.raises(InvalidParams, match="empty edge list"):
        build_network([])


# ---------------------------------------------------------------------------
# the array constructor against the loop-based reference

FAULTS = ("range", "loop", "weight", "duplicate", "disconnected")
BAD_WEIGHTS = (0.0, -0.0, -1.5, float("nan"), float("inf"), float("-inf"))


@st.composite
def faulty_edge_lists(draw):
    """(edges, n): a digraph of :func:`netdefs.digraphs` with up to 3
    injected faults."""
    edges, n = draw(netdefs.digraphs())
    weight = st.floats(0.01, 100.0)
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        at = draw(st.integers(0, len(edges)))
        v = draw(st.integers(0, n - 1))
        if fault == "range":
            bad = draw(st.sampled_from([-1, n, n + 7]))
            edges.insert(at, draw(st.sampled_from([(bad, v, 1.0), (v, bad, 1.0)])))
        elif fault == "loop":
            edges.insert(at, (v, v, 1.0))
        elif fault == "weight" and edges:
            k = draw(st.integers(0, len(edges) - 1))
            edges[k] = edges[k][:2] + (draw(st.sampled_from(BAD_WEIGHTS)),)
        elif fault == "duplicate" and edges:
            k = draw(st.integers(0, len(edges) - 1))
            edges.insert(at, edges[k][:2] + (draw(weight),))
        elif fault == "disconnected":
            link = draw(st.sampled_from([[], [(v, n, 1.0)], [(n, v, 1.0)]]))
            edges[at:at] = link
            n += 1
    return edges, n


def _outcome(build):
    try:
        return build()
    except ForestnetsError as exc:
        return type(exc), str(exc)


# refined LU drifted 1.45e-12 from lstsq here, with the larger residual
WIDE_4 = [(0, 2, 97.0), (1, 0, 15.0), (2, 0, 97.521484375), (2, 3, 0.01), (3, 1, 0.01)]


@settings(max_examples=400, deadline=None)
@given(case=faulty_edge_lists(), as_array=st.booleans())
@example(case=(WIDE_4, 4), as_array=False)
def test_constructor_matches_reference(case, as_array):
    edges, n = case
    got = _outcome(lambda: Network(np.asarray(edges) if as_array else edges, n))
    want = _outcome(lambda: reference_network(edges, n))
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Network), got
    assert got.L.tobytes() == want.L.tobytes()
    assert got.edges == want.edges
    assert got.w_max == want.w_max
    assert got.reversible == want.reversible
    gap = np.abs(got.mu - want.mu).max() / want.mu.max()
    if gap > 1e-12:
        # lstsq drifts on wide weight ranges (2e-12 on a 6-cycle with
        # weights 0.0117 to 96, where LU is exact to 4e-16): then the
        # constructor's measure must be the more nearly invariant one
        assert np.abs(got.mu @ got.L).max() < np.abs(want.mu @ want.L).max()


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.floats(0.001, 1000.0), min_size=2, max_size=8))
@example(weights=[0.5, 0.001, 0.001])
def test_invariant_measure_of_cycle_is_exact(weights):
    # on a directed cycle mu(x) is proportional to 1 / w(x, x + 1)
    n = len(weights)
    net = build_network([(x, (x + 1) % n, w) for x, w in enumerate(weights)], n)
    exact = [1 / Fraction(w) for w in weights]
    exact = np.array([float(x / sum(exact)) for x in exact])
    assert np.abs(net.mu - exact).max() <= 1e-14 * exact.max()


def _exact_measure(edges, n):
    # mu L = 0 with its last equation replaced by sum(mu) = 1, in rationals
    a = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for s, d, w in edges:
        a[d][s] += Fraction(w)
        a[s][s] -= Fraction(w)
    a[n - 1] = [Fraction(1)] * (n + 1)
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        a[k], a[p] = a[p], a[k]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return np.array([float(a[i][n] / a[i][i]) for i in range(n)])


@st.composite
def wide_digraphs(draw):
    """(edges, n): a strongly connected digraph on 2 to 7 vertices with
    weights spread over six decades."""
    n = draw(st.integers(2, 7))
    pairs = {(x, (x + 1) % n) for x in range(n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs |= {(a, b) for a, b in draw(st.lists(extra, max_size=2 * n)) if a != b}
    weight = st.floats(0.001, 1000.0)
    return [(a, b, draw(weight)) for a, b in sorted(pairs)], n


@settings(max_examples=200, deadline=None)
@given(case=wide_digraphs(), block=st.sampled_from([1, 2, 3, 64]))
@example(case=(WIDE_4, 4), block=64)
def test_invariant_measure_is_exact_entrywise(case, block):
    # every block size, so that small graphs cross block boundaries too
    edges, n = case
    exact = _exact_measure(edges, n)
    mu = _gth_measure(build_network(edges, n).L, block)
    assert np.abs(mu / exact - 1).max() <= 1e-14


def test_invariant_measure_of_long_cycle_is_exact():
    # several default-sized blocks, weights over six decades
    weights = 10.0 ** np.random.default_rng(5).uniform(-3, 3, 300)
    n = len(weights)
    net = build_network([(x, (x + 1) % n, w) for x, w in enumerate(weights)], n)
    exact = [1 / Fraction(w) for w in weights]
    total = sum(exact)
    exact = np.array([float(x / total) for x in exact])
    assert np.abs(net.mu / exact - 1).max() <= 1e-14


def test_given_measure_is_taken_not_solved(monkeypatch):
    monkeypatch.setattr(network, "_gth_measure", None)
    n, edges = netdefs.CYCLE3
    mu = np.array([0.2, 0.3, 0.5])
    net = Network(edges, n, mu=mu)
    assert net.mu is mu


def _refuse(*a):
    raise AssertionError("GTH called on a reversible network")


@st.composite
def random_trees(draw, max_n=12):
    """(parent, n): vertex k > 0 hangs below ``parent[k] < k``."""
    n = draw(st.integers(2, max_n))
    return [None] + [draw(st.integers(0, k - 1)) for k in range(1, n)], n


@settings(max_examples=200, deadline=None)
@given(
    tree=random_trees(),
    extra=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
    weights=st.lists(st.floats(0.001, 1000.0), min_size=40, max_size=40),
)
def test_symmetric_weights_give_the_uniform_measure(tree, extra, weights):
    # a spanning tree plus chords, one weight per undirected pair
    parent, n = tree
    pairs = {(parent[k], k) for k in range(1, n)}
    pairs |= {(min(a, b), max(a, b)) for a, b in extra if a != b and max(a, b) < n}
    edges = netdefs.undirected(
        [(a, b, w) for (a, b), w in zip(sorted(pairs), weights)]
    )
    with mock.patch.object(network, "_gth_measure", _refuse):
        net = build_network(edges, n)
    assert np.array_equal(net.mu, np.full(n, 1 / n))
    assert net.reversible


@settings(max_examples=200, deadline=None)
@given(tree=random_trees(max_n=30), data=st.data())
def test_tree_measure_is_exact_entrywise(tree, data):
    # weights over six decades, each direction its own; mu(x) is the
    # product of w(p, x) / w(x, p) down the tree, normalized
    parent, n = tree
    weight = st.floats(0.001, 1000.0)
    down = [None] + [data.draw(weight) for _ in range(1, n)]
    up = [None] + [data.draw(weight) for _ in range(1, n)]
    edges = [(parent[k], k, down[k]) for k in range(1, n)]
    edges += [(k, parent[k], up[k]) for k in range(1, n)]
    exact, depth = [Fraction(1)], [0]
    for k in range(1, n):
        exact.append(exact[parent[k]] * Fraction(down[k]) / Fraction(up[k]))
        depth.append(depth[parent[k]] + 1)
    total = sum(exact)
    exact = np.array([float(x / total) for x in exact])
    with mock.patch.object(network, "_gth_measure", _refuse):
        mu = build_network(edges, n).mu
    # below depth(x) eps per tree product, n/2 eps for the sum
    bound = (2 * max(depth) + n) * np.finfo(float).eps
    assert np.abs(mu / exact - 1).max() <= bound


def _bidirected_ring4():
    # RING4_ASYM with each missing reverse added: every edge has its
    # reverse, but the 4-cycle's weight products are 4 and 0.5
    n, edges = netdefs.RING4_ASYM
    have = {(s, d) for s, d, _ in edges}
    return n, edges + [(d, s, 1.0) for s, d, _ in edges if (d, s) not in have]


def _perturbed_grid():
    n, edges = 9, netdefs.grid_edges(3, 3, 1.5)
    s, d, w = edges[4]
    edges[4] = (s, d, w * (1 + 1e-9))
    return n, edges


@pytest.mark.parametrize("case", [_bidirected_ring4, _perturbed_grid])
def test_irreversible_networks_with_every_reverse_edge_take_gth(monkeypatch, case):
    n, edges = case()
    tried = []
    tree = network._tree_measure
    monkeypatch.setattr(
        network, "_tree_measure", lambda *a: tried.append(tree(*a)) or tried[-1]
    )
    net = build_network(edges, n)
    assert tried == [None]
    assert np.array_equal(net.mu, _gth_measure(net.L))


@pytest.mark.parametrize(
    "mu", [[0.5, 0.5], [0.5, 0.0, 0.5], [0.5, -0.1, 0.6], [0.5, np.nan, 0.5]]
)
def test_given_measure_must_be_positive_on_every_vertex(mu):
    n, edges = netdefs.CYCLE3
    with pytest.raises(InvalidParams, match="given measure"):
        Network(edges, n, mu=np.array(mu))


@pytest.mark.parametrize(
    "ids, message",
    [
        ([0, 2.7], "vertex 2.7 of kept set is not an integer"),
        ([0, float("nan")], "vertex nan of kept set is not an integer"),
        ([float("inf")], "vertex inf of kept set is not an integer"),
        (["x"], "vertex 'x' of kept set is not an integer"),
        (np.array([1.0, 0.5]), "vertex 0.5 of kept set is not an integer"),
    ],
)
def test_vertex_set_rejects_non_integral_ids(ids, message):
    with pytest.raises(InvalidParams) as exc:
        vertex_set(5, ids, "kept set")
    assert str(exc.value) == message


def test_vertex_set_takes_integral_numbers():
    got = vertex_set(5, [np.int64(3), 0, 2.0, np.float64(4.0), True], "kept set")
    assert got.tolist() == [0, 1, 2, 3, 4] and got.dtype == np.int64


def test_overflowing_exit_rate_is_invalid(recwarn):
    edges = [(0, 1, 1e308), (0, 2, 1e308), (1, 0, 1.0), (2, 0, 1.0)]
    with pytest.raises(InvalidParams, match="exit rate of vertex 0 overflows"):
        build_network(edges, 3)
    assert len(recwarn) == 0


# ---------------------------------------------------------------------------
# guards: the exit rates are the dense row sums, bit for bit


def seeded_grid(side, symmetric):
    """A side x side 4-neighbour grid with weights in [0.5, 2] drawn from
    ``default_rng(side)``: the same both ways, or drawn for each direction."""
    rng = np.random.default_rng(side)
    pairs = [(x, y) for x, y, _ in netdefs.grid_edges(side, side)[::2]]
    fwd, back = rng.uniform(0.5, 2.0, (2, len(pairs)))
    back = fwd if symmetric else back
    edges = [(x, y, w) for (x, y), w in zip(pairs, fwd)]
    return build_network(edges + [(y, x, w) for (x, y), w in zip(pairs, back)], side * side)


@pytest.mark.parametrize("side", [24, 64])
@pytest.mark.parametrize("symmetric", [True, False])
def test_exit_rates_are_the_dense_row_sums_bit_for_bit(side, symmetric):
    # the exit rates set w_max and every diagonal of L; summed in any other
    # order than the dense row's they differ in the last bit, as
    # np.bincount's do on these grids
    net = seeded_grid(side, symmetric)
    W = np.zeros((net.n, net.n))
    W[net.src, net.dst] = net.w
    dense = W.sum(axis=1)
    assert net.exits.tobytes() == dense.tobytes()
    assert net.w_max == float(dense.max())
    assert not np.array_equal(np.bincount(net.src, net.w, net.n), dense)
    # and from sparse rates, as a Schur reduction hands them over
    sparse = scipy.sparse.csr_array(W)
    assert network.exit_rates(sparse).tobytes() == dense.tobytes()
    assert Network.of_rates(sparse, net.mu).exits.tobytes() == dense.tobytes()


def test_network_forms_its_dense_generator_only_when_read():
    # a reversible network's measure comes from its tree, and nothing but a
    # read of L forms L; GTH, the measure of any other network, reads it
    assert "L" in vars(seeded_grid(12, False))
    net = seeded_grid(24, True)
    assert "L" not in vars(net)
    assert net.reversible and "L" not in vars(net)
    W = np.zeros((net.n, net.n))
    W[net.src, net.dst] = net.w
    np.fill_diagonal(W, -net.exits)
    assert net.L.tobytes() == W.tobytes()
    x, y = np.array([0, 0, 1, 25]), np.array([1, 2, 0, 24])
    assert net.rate(x, y).tolist() == W[x, y].tolist()
