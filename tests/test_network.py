import numpy as np
import pytest

from forestnets import config
from forestnets.errors import (
    DuplicateEdge,
    InvalidParams,
    NonPositiveWeight,
    NotIrreducible,
)
from forestnets.network import Network, build_network, skeleton

import netdefs


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


def test_max_vertices_boundary(monkeypatch):
    monkeypatch.setattr(config, "MAX_VERTICES", 3)
    assert build_network(netdefs.PATH3[1], 3).n == 3

    def edges():
        raise AssertionError("edges read before the size check")
        yield

    with pytest.raises(InvalidParams, match="4 vertices"):
        Network(edges(), 4)


def test_weight_lookup(two_asym):
    assert two_asym.weight(0, 1) == 2.0
    assert two_asym.weight(1, 0) == 1.0
    assert two_asym.weight(0, 0) == 0.0

