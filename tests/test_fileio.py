"""File format parsing, emission, and round trips."""

import io
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from forestnets import coarsegrain as cg
from forestnets import cli, fileio, network, oracle
from forestnets import wavelets as wv
from forestnets.errors import MalformedInput
from forestnets.network import build_network
from forestnets.sampler import RootedForest

from netdefs import cycle_edges, grid_edges


# ---------------------------------------------------------------------------
# edge lists


def test_read_edges_basic():
    text = "# comment\n0\t1\t2.0\n\n1\t0\t1.0  # trailing\n"
    edges = fileio.read_edges(io.StringIO(text))
    assert edges == [(0, 1, 2.0), (1, 0, 1.0)]


def test_read_edges_undirected():
    edges = fileio.read_edges(io.StringIO("0\t1\t1.5\n"), undirected=True)
    assert edges == [(0, 1, 1.5), (1, 0, 1.5)]


def test_read_edges_spaces_allowed():
    edges = fileio.read_edges(io.StringIO("0 1 2.0\n"))
    assert edges == [(0, 1, 2.0)]


@pytest.mark.parametrize(
    "text",
    ["0\t1\n", "a\tb\tc\n", "0\t1\t1.0\t9\n", "", "# only comments\n"],
)
def test_read_edges_malformed(text):
    with pytest.raises(MalformedInput):
        fileio.read_edges(io.StringIO(text))


def test_write_edges_deterministic(two_asym):
    buf = io.StringIO()
    fileio.write_edges(buf, two_asym)
    assert buf.getvalue() == "0\t1\t2.0\n1\t0\t1.0\n"


# ---------------------------------------------------------------------------
# signals


def test_read_signal_with_header():
    text = "vertex,value\n0,1.5\n2,3.0\n1,-2.0\n"
    values = fileio.read_signal(io.StringIO(text))
    assert np.allclose(values, [1.5, -2.0, 3.0])


def test_signal_roundtrip():
    buf = io.StringIO()
    fileio.write_signal(buf, [0.5, -1.25, 3.0])
    back = fileio.read_signal(io.StringIO(buf.getvalue()))
    assert np.array_equal(back, [0.5, -1.25, 3.0])


@pytest.mark.parametrize(
    "text",
    [
        "0,1.0\n0,2.0\n",  # duplicate vertex
        "0,1.0\n2,2.0\n",  # vertex 1 missing
        "0,x\n",
        "0;1.0\n",
        "",
    ],
)
def test_read_signal_malformed(text):
    with pytest.raises(MalformedInput):
        fileio.read_signal(io.StringIO(text))


def test_read_signal_size_mismatch():
    with pytest.raises(MalformedInput):
        fileio.read_signal(io.StringIO("0,1.0\n"), n=2)


# ---------------------------------------------------------------------------
# forests


def test_write_forest_format():
    forest = RootedForest(q=3.0, forced_roots=(), parent=np.array([-1, 0]))
    buf = io.StringIO()
    fileio.write_forest(buf, forest)
    assert buf.getvalue() == "# q=3.0 roots=1\n0\t-1\n1\t0\n"


# ---------------------------------------------------------------------------
# graymaps


def test_read_pgm_ascii():
    text = b"P2\n# demo\n3 2\n255\n0 10 20\n30 40 50\n"
    image, maxval = fileio.read_pgm(io.BytesIO(text))
    assert maxval == 255
    assert np.array_equal(image, [[0, 10, 20], [30, 40, 50]])


def test_read_pgm_binary():
    data = b"P5\n3 2\n# comment after dims\n255\n" + bytes([0, 10, 20, 30, 40, 50])
    image, maxval = fileio.read_pgm(io.BytesIO(data))
    assert np.array_equal(image, [[0, 10, 20], [30, 40, 50]])


def test_pgm_roundtrip():
    image = np.arange(12.0).reshape(3, 4) * 9.5
    buf = io.BytesIO()
    fileio.write_pgm(buf, image)
    back, maxval = fileio.read_pgm(io.BytesIO(buf.getvalue()))
    assert maxval == 255
    assert np.array_equal(back, np.rint(image))


@pytest.mark.parametrize(
    "data",
    [
        b"P3\n1 1\n255\n0\n",
        b"P2\n2 2\n255\n0 1 2\n",  # truncated raster
        b"P2\n0 2\n255\n\n",
        b"P2\n1 1\n255\n999\n",  # pixel above maxval
        b"P5\n1 1\n70000\n\x00",
    ],
)
def test_read_pgm_malformed(data):
    with pytest.raises(MalformedInput):
        fileio.read_pgm(io.BytesIO(data))


def test_grid_network_shape():
    net = fileio.grid_network(2, 3)
    assert net.n == 6
    assert net.w.size == 14
    assert net.L[0, 1] == 1.0
    assert net.L[0, 3] == 1.0
    assert net.L[0, 4] == 0.0


# ---------------------------------------------------------------------------
# pyramid archives


def make_pyramid():
    n = 16
    net = build_network(cycle_edges(n, 1.0), n)
    f = np.sin(np.arange(n) / 2.0)
    return f, wv.build_pyramid(net, f, seed=3, max_levels=2)


def test_pyramid_roundtrip():
    f, pyr = make_pyramid()
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr, meta={"rows": 4, "cols": 4})
    text = buf.getvalue()
    back, meta = fileio.read_pyramid(io.StringIO(text))
    assert meta == {"rows": 4, "cols": 4}
    assert np.abs(wv.reconstruct_pyramid(back) - f).max() < 1e-12
    # re-serialization is byte-identical
    buf2 = io.StringIO()
    fileio.write_pyramid(buf2, back, meta=meta)
    assert buf2.getvalue() == text


def test_pyramid_roundtrip_preserves_measures():
    _, pyr = make_pyramid()
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
    for a, b in zip(pyr.levels, back.levels):
        assert np.allclose(a.mu, b.mu)
    assert back.base_masses == pytest.approx(pyr.base_masses)
    assert np.allclose(pyr.apex_mu, back.apex_mu)


def test_read_pyramid_malformed():
    with pytest.raises(MalformedInput):
        fileio.read_pyramid(io.StringIO("not json"))
    with pytest.raises(MalformedInput):
        fileio.read_pyramid(io.StringIO(json.dumps({"format": "other"})))
    doc = {"format": fileio.PYRAMID_FORMAT, "version": 99}
    with pytest.raises(MalformedInput):
        fileio.read_pyramid(io.StringIO(json.dumps(doc)))
    doc = {
        "format": fileio.PYRAMID_FORMAT,
        "version": 1,
        "base": {"n": 2, "edges": [[0, 1, 1.0], [1, 0, 1.0]]},
        "levels": [
            {
                "keep": [0],
                "q_prime": 1.0,
                "q_tuning": None,
                "detail": [0.0, 0.0],
                "next_edges": [],
            }
        ],
        "apex": [0.0],
    }
    with pytest.raises(MalformedInput):
        fileio.read_pyramid(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("theta", [None, 0.5])
def test_archive_round_trip_computes_each_schur_complement_once(monkeypatch, theta):
    # every Schur complement is computed by a reduction's _complement
    calls = []
    real = cg.ReducedNetwork._complement

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(cg.ReducedNetwork, "_complement", counted)
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    f = np.sin(np.arange(n) / 4.0)
    pyr = wv.build_pyramid(net, f, seed=9, max_levels=3, sparsify_theta=theta)
    assert any(lvl.sparsified for lvl in pyr.levels) == (theta is not None)
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    assert len(calls) == pyr.depth == 3
    calls.clear()
    back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
    wv.compression_curve(back, [0.1, 0.5, 1.0])
    for p in (1.0, 2.0, math.inf):
        wv.stability_bounds(back, p)
    assert len(calls) == back.depth


@pytest.mark.parametrize("theta", [None, 0.5])
def test_read_path_forms_no_inverse(monkeypatch, theta):
    # the queries form no killed kernel; each level factors its -L_DD
    # block once for every reconstruction, and q' Id - L once for each
    # detail-size check
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    f = np.sin(np.arange(n) / 4.0)
    pyr = wv.build_pyramid(net, f, seed=9, max_levels=3, sparsify_theta=theta)
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    greens, factored = [], []
    real_green, real_lu = oracle.green, scipy.linalg.lu_factor
    monkeypatch.setattr(
        oracle, "green", lambda *a: greens.append(a) or real_green(*a)
    )
    monkeypatch.setattr(
        scipy.linalg, "lu_factor", lambda A: factored.append(A.copy()) or real_lu(A)
    )
    back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
    assert any(lvl.sparsified for lvl in back.levels) == (theta is not None)
    wv.compression_curve(back, [0.1, 0.5, 1.0])
    wv.reconstruct_pyramid(back)
    ps = (1.0, 2.0, math.inf)
    for p in ps:
        wv.stability_bounds(back, p)
    assert greens == []

    def times_factored(M):
        return sum(A.shape == M.shape and np.array_equal(A, M) for A in factored)

    for lvl in back.levels:
        L, d = lvl.network.L, lvl.dropped
        assert times_factored(-L[np.ix_(d, d)]) == 1
        assert times_factored(lvl.q_prime * np.eye(lvl.n) - L) == len(ps)
    assert len(factored) == (1 + len(ps)) * back.depth
    assert back.depth == 3


@pytest.mark.parametrize("theta", [None, 0.5])
def test_each_level_checks_its_reduced_rates_once(monkeypatch, theta):
    # the Schur guards of a level run once, whether the level's network,
    # its w_max, its complement or a sparsification reads them
    calls = []
    real = cg.reduced_rates

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cg, "reduced_rates", counted)
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    f = np.sin(np.arange(n) / 4.0)
    pyr = wv.build_pyramid(net, f, seed=9, max_levels=3, sparsify_theta=theta)
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    assert len(calls) == pyr.depth == 3
    calls.clear()
    back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
    wv.compression_curve(back, [0.1, 0.5, 1.0])
    for p in (1.0, 2.0, math.inf):
        wv.stability_bounds(back, p)
    assert len(calls) == back.depth


def seeded_query_archive():
    """The archive of a seeded 24x24 grid with symmetric weights in
    [0.5, 2] and 3 levels built from fixed kept sets of 65% each."""
    rng = np.random.default_rng(0)
    side = 24
    pairs = [(x, y) for x, y, _ in grid_edges(side, side)[::2]]
    w = rng.uniform(0.5, 2.0, len(pairs))
    edges = [(x, y, c) for (x, y), c in zip(pairs, w)]
    edges += [(y, x, c) for (x, y), c in zip(pairs, w)]
    net = build_network(edges, side * side)
    keeps, n = [], side * side
    for _ in range(3):
        m = round(0.65 * n)
        keeps.append(sorted(rng.choice(n, m, replace=False).tolist()))
        n = m
    pyr = wv.build_pyramid(net, rng.normal(size=side * side), forced_keep=keeps)
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    return buf.getvalue()


def test_archive_queries_search_once_and_check_each_level_once(monkeypatch):
    # a read and the queries on it run one breadth-first search, for the
    # base network's tree (its measure), check each level's Schur rates
    # once and never read reversibility
    text = seeded_query_archive()
    searches, checks = [], []
    real_search, real_rates = network.breadth_first, cg.reduced_rates
    monkeypatch.setattr(
        network, "breadth_first", lambda *a: searches.append(a[0]) or real_search(*a)
    )
    monkeypatch.setattr(
        cg, "reduced_rates", lambda *a: checks.append(a[1].size) or real_rates(*a)
    )
    back, _ = fileio.read_pyramid(io.StringIO(text))
    wv.compression_curve(back, [0.1, 0.5, 1.0])
    wv.stability_bounds(back, 2.0)
    assert searches == [back.base.n]
    assert checks == [lvl.keep.size for lvl in back.levels] and back.depth == 3
    nets = [back.base] + [lvl.next_network for lvl in back.levels]
    assert not any("reversible" in vars(net) for net in nets)


@pytest.mark.parametrize("theta", [None, 0.5])
def test_read_validates_only_the_stored_edge_lists(monkeypatch, theta):
    # the base and each stored next_edges are input and are validated as
    # edge lists; an exact level's network is built from its checked rates
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    f = np.sin(np.arange(n) / 4.0)
    pyr = wv.build_pyramid(net, f, seed=9, max_levels=3, sparsify_theta=theta)
    stored = sum(lvl.sparsified for lvl in pyr.levels)
    assert (stored > 0) == (theta is not None)
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    calls = []
    real = network._sorted_edges

    def counted(a, n):
        calls.append(n)
        return real(a, n)

    monkeypatch.setattr(network, "_sorted_edges", counted)
    back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
    assert back.depth == 3
    assert len(calls) == 1 + stored
    assert calls[0] == n


def test_rewriting_a_v1_archive_keeps_its_networks(monkeypatch):
    # a version 1 archive, relabelled version 2, stores every level's
    # network; such a level may hold an exact or a sparsified network, so
    # its edges are stored again: telling which would take a Schur complement
    _, built = make_pyramid()
    v1 = fileio.pyramid_to_dict(built)
    for entry, lvl in zip(v1["levels"], built.levels):
        entry["next_edges"] = [list(e) for e in lvl.next_network.edges]
    calls = []
    monkeypatch.setattr(cg, "schur_complement", lambda *a: calls.append(a))
    monkeypatch.setattr(
        cg.ReducedNetwork, "_complement", lambda self: calls.append(self)
    )
    pyr, _ = fileio.read_pyramid(io.StringIO(json.dumps(v1)))
    doc = fileio.pyramid_to_dict(pyr)
    assert calls == []
    assert doc["version"] == 2
    assert [lvl["next_edges"] for lvl in doc["levels"]] == [
        lvl["next_edges"] for lvl in v1["levels"]
    ]


@pytest.mark.parametrize("theta", [None, 0.5])
def test_only_the_base_measure_is_solved(monkeypatch, theta):
    # every level network carries the base measure conditioned down to
    # it, built or read, exact or sparsified; the undirected cycle solves
    # it on a spanning tree, the directed one (which cannot be sparsified)
    # by GTH
    solves, gth = [], []
    solve, real = network.Network._invariant_measure, network._gth_measure
    monkeypatch.setattr(
        network.Network,
        "_invariant_measure",
        lambda self, *a: solves.append(self) or solve(self, *a),
    )
    monkeypatch.setattr(
        network, "_gth_measure", lambda L, *a: gth.append(L) or real(L, *a)
    )
    n = 32
    directed = [(x, (x + 1) % n, 1.0 + x / n) for x in range(n)]
    cases = [(cycle_edges(n, 1.0), 0)] + [(directed, 1)] * (theta is None)
    for edges, gth_solves in cases:
        net = build_network(edges, n)
        solves.clear()
        gth.clear()
        f = np.sin(np.arange(n) / 4.0)
        pyr = wv.build_pyramid(net, f, seed=9, max_levels=3, sparsify_theta=theta)
        buf = io.StringIO()
        fileio.write_pyramid(buf, pyr)
        assert solves == gth == []
        back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
        assert len(solves) == 1
        assert len(gth) == gth_solves
        for p in (pyr, back):
            nets = [lvl.network for lvl in p.levels] + [p.levels[-1].next_network]
            mus = [lvl.mu for lvl in p.levels] + [p.apex_mu]
            assert all(np.array_equal(a.mu, b) for a, b in zip(nets, mus))


# ---------------------------------------------------------------------------
# a dense generator only on dense levels


def sparse_by_rule(net):
    return oracle.sparse_pays(net.n, net.w.size + net.n)


def record_dense_generators(monkeypatch):
    """Whether each network whose dense ``L`` is formed from its edges is
    sparse by the density rule, in order (``Network.L`` is patched)."""
    formed = []
    real = network.Network.L.func

    def counted(net):
        formed.append(sparse_by_rule(net))
        return real(net)

    monkeypatch.setattr(network.Network.L, "func", counted)
    return formed


def test_build_forms_no_dense_generator_on_a_sparse_level(monkeypatch):
    # a 64x64 build from fixed kept sets of 65%, and a sampled 32x32 build,
    # which runs the tuning scan and the kept-set draws: every network
    # sparse by the rule keeps its edge arrays alone, and a dense one
    # holds its L (the rates of its dense Schur complement)
    formed = record_dense_generators(monkeypatch)
    for side, seed in ((64, None), (32, 5)):
        rng = np.random.default_rng(side)
        pairs = [(x, y) for x, y, _ in grid_edges(side, side)[::2]]
        w = rng.uniform(0.5, 2.0, len(pairs))
        edges = [(x, y, c) for (x, y), c in zip(pairs, w)]
        net = build_network(edges + [(y, x, c) for (x, y), c in zip(pairs, w)], side**2)
        keeps, n = [], side * side
        for _ in range(3):
            keeps.append(np.sort(rng.choice(n, round(0.65 * n), replace=False)))
            n = keeps[-1].size
        kw = dict(forced_keep=keeps) if seed is None else dict(seed=seed, max_levels=3)
        pyr = wv.build_pyramid(net, rng.normal(size=side * side), **kw)
        nets = [pyr.base] + [lvl.next_network for lvl in pyr.levels]
        dense = [not sparse_by_rule(x) for x in nets]
        assert dense[:2] == [False, False] and dense[-1]
        assert ["L" in vars(x) for x in nets] == dense
    assert True not in formed


def test_archive_queries_form_no_dense_generator_on_a_sparse_level(
    monkeypatch, tmp_path, capsys
):
    formed = record_dense_generators(monkeypatch)
    path = tmp_path / "pyramid.json"
    path.write_text(seeded_query_archive())
    for argv in (
        ["signal", "compress", str(path), "--fractions", "0.1,0.5,1"],
        ["signal", "bounds", str(path), "--p", "2"],
        ["signal", "bounds", str(path), "--p", "inf"],
        ["signal", "reconstruct", str(path), "--keep-fraction", "0.1"],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert True not in formed
    # the same queries in the library: the sparse levels (the base, and the
    # level-0 reduction's network of a sparse Schur complement) hold no L,
    # the dense ones do
    back, _ = fileio.read_pyramid(io.StringIO(path.read_text()))
    wv.compression_curve(back, [0.1, 0.5, 1.0])
    wv.stability_bounds(back, 2.0)
    wv.reconstruct_pyramid(back)
    nets = [back.base] + [lvl.next_network for lvl in back.levels]
    dense = [not sparse_by_rule(x) for x in nets]
    assert dense == [False, False, True, True]
    assert ["L" in vars(x) for x in nets] == dense
    assert scipy.sparse.issparse(back.levels[0].reduction._complement())
    assert not scipy.sparse.issparse(back.levels[1].reduction._complement())
    assert True not in formed


def test_a_reduced_network_and_the_next_level_share_one_generator():
    # the level-0 reduction of the 24x24 archive is sparse: the product
    # through it in the reconstruction and the next level's products read
    # one CSC matrix, built once
    back, _ = fileio.read_pyramid(io.StringIO(seeded_query_archive()))
    wv.stability_bounds(back, 2.0)
    wv.reconstruct_pyramid(back)
    shared = back.levels[0].reduction.network.generator
    assert shared is back.levels[1].network.generator
    assert isinstance(shared, scipy.sparse.csc_array)


def kept_square_arrays(red):
    """The distinct kept x kept arrays a reduction holds, in its own
    attributes and in those of its network."""
    k = red.kept.size
    owners = [red] + ([red.network] if "network" in vars(red) else [])
    held = {}
    for owner in owners:
        for value in vars(owner).values():
            for v in value if isinstance(value, tuple) else (value,):
                if getattr(v, "shape", None) == (k, k):
                    held[id(v)] = v
    return list(held.values())


def test_dense_archive_levels_keep_one_reduced_generator():
    # the bounds and the reconstruction read one reduced generator per
    # level: the reduced network's L, which the next level analyses with
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    pyr = wv.build_pyramid(net, np.sin(np.arange(n) / 4.0), seed=9, max_levels=3)
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
    wv.stability_bounds(back, 2.0)
    wv.reconstruct_pyramid(back)
    assert back.depth == 3
    for lvl in back.levels:
        red = lvl.reduction
        assert not lvl.sparsified
        assert [id(a) for a in kept_square_arrays(red)] == [id(red.network.L)]


def test_sparsified_archive_level_keeps_one_reduced_generator():
    # a sparsified level runs the next level on its stored network; the
    # bounds and the reconstruction read the exact reduction's network,
    # which is then the one kept x kept array its reduction holds
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    pyr = wv.build_pyramid(
        net, np.sin(np.arange(n) / 4.0), seed=9, max_levels=3, sparsify_theta=0.5
    )
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
    wv.stability_bounds(back, 2.0)
    wv.reconstruct_pyramid(back)
    red = back.levels[0].reduction
    assert back.levels[0].sparsified
    assert [id(a) for a in kept_square_arrays(red)] == [id(red.network.L)]
