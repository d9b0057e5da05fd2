"""File format parsing, emission, and round trips."""

import io
import json
import math
import os

import numpy as np
import pytest
import scipy.linalg

from forestnets import coarsegrain as cg
from forestnets import fileio, network, oracle
from forestnets import wavelets as wv
from forestnets.errors import MalformedInput
from forestnets.network import build_network
from forestnets.sampler import wilson_sample

from netdefs import cycle_edges


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


def test_forest_roundtrip(two_asym):
    forest = wilson_sample(two_asym, 3.0, seed=5)
    buf = io.StringIO()
    fileio.write_forest(buf, forest)
    parent, q = fileio.read_forest(io.StringIO(buf.getvalue()))
    assert np.array_equal(parent, forest.parent)
    assert q == 3.0


def test_read_forest_malformed():
    with pytest.raises(MalformedInput):
        fileio.read_forest(io.StringIO("0\n"))
    with pytest.raises(MalformedInput):
        fileio.read_forest(io.StringIO("0\t1\n2\t-1\n"))  # vertex 1 missing
    with pytest.raises(MalformedInput):
        fileio.read_forest(io.StringIO(""))


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
        assert a.base_mass == pytest.approx(b.base_mass)
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
    calls = []
    real = cg.schur_complement

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cg, "schur_complement", counted)
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
    # the queries form no killed kernel, and each level factors its -L_DD
    # block once for every reconstruction
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
        scipy.linalg, "lu_factor", lambda A: factored.append(A.shape) or real_lu(A)
    )
    back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
    assert any(lvl.sparsified for lvl in back.levels) == (theta is not None)
    wv.compression_curve(back, [0.1, 0.5, 1.0])
    wv.reconstruct_pyramid(back)
    for p in (1.0, 2.0, math.inf):
        wv.stability_bounds(back, p)
    assert greens == []
    assert sorted(factored) == sorted((lvl.dropped.size,) * 2 for lvl in back.levels)
    assert len(factored) == back.depth == 3


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


def test_rewriting_a_v1_archive_keeps_its_networks(monkeypatch):
    # a version 1 level may hold an exact or a sparsified network, so its
    # edges are stored again; telling which would take a Schur complement
    calls = []
    monkeypatch.setattr(cg, "schur_complement", lambda *a: calls.append(a))
    path = os.path.join(os.path.dirname(__file__), "data", "golden_v1.json")
    with open(path) as fh:
        v1 = json.load(fh)
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
    # it, built or read, exact or sparsified
    calls = []
    real = network._gth_measure
    monkeypatch.setattr(
        network, "_gth_measure", lambda L, *a: calls.append(L) or real(L, *a)
    )
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    calls.clear()
    f = np.sin(np.arange(n) / 4.0)
    pyr = wv.build_pyramid(net, f, seed=9, max_levels=3, sparsify_theta=theta)
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    assert calls == []
    back, _ = fileio.read_pyramid(io.StringIO(buf.getvalue()))
    assert len(calls) == 1
    for p in (pyr, back):
        nets = [lvl.network for lvl in p.levels] + [p.levels[-1].next_network]
        mus = [lvl.mu for lvl in p.levels] + [p.apex_mu]
        assert all(np.array_equal(a.mu, b) for a, b in zip(nets, mus))
