"""Shared tiny test networks. Each entry is (n, edge list)."""

from __future__ import annotations

from hypothesis import strategies as st


def undirected(pairs):
    """Expand symmetric (x, y, w) pairs into both directed edges."""
    out = []
    for x, y, w in pairs:
        out.append((x, y, w))
        out.append((y, x, w))
    return out


#: asymmetric two-vertex network used everywhere in the worked examples
TWO_ASYM = (2, [(0, 1, 2.0), (1, 0, 1.0)])

#: directed unit 3-cycle (non-reversible, complex spectrum)
CYCLE3 = (3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

#: undirected unit path 0-1-2
PATH3 = (3, undirected([(0, 1, 1.0), (1, 2, 1.0)]))

#: star with center 0, symmetric distinct weights (reversible, uniform mu)
STAR4 = (4, undirected([(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)]))

#: fully connected 3-vertex network with asymmetric weights (non-reversible)
TRI_ASYM = (
    3,
    [
        (0, 1, 1.0),
        (1, 0, 2.0),
        (1, 2, 3.0),
        (2, 1, 1.0),
        (2, 0, 2.0),
        (0, 2, 1.0),
    ],
)

#: weighted undirected 4-cycle with one chord (reversible, nonuniform spectrum)
DIAMOND4 = (
    4,
    undirected(
        [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 0, 0.5), (0, 2, 1.0)]
    ),
)

#: directed 4-vertex network with extra back edges (non-reversible)
RING4_ASYM = (
    4,
    [
        (0, 1, 1.0),
        (1, 2, 2.0),
        (2, 3, 1.0),
        (3, 0, 2.0),
        (1, 0, 0.5),
        (2, 0, 1.0),
    ],
)

#: undirected unit path on 5 vertices (Schur transitivity tests)
PATH5 = (5, undirected([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]))

#: name -> (n, edges); the n <= 5 corpus for enumeration cross-checks
SMALL_GRAPHS = {
    "two_asym": TWO_ASYM,
    "cycle3": CYCLE3,
    "path3": PATH3,
    "star4": STAR4,
    "tri_asym": TRI_ASYM,
    "diamond4": DIAMOND4,
    "ring4_asym": RING4_ASYM,
    "path5": PATH5,
}


def cycle_edges(n: int, w: float = 1.0):
    """Undirected n-cycle."""
    return undirected([(i, (i + 1) % n, w) for i in range(n)])


def grid_edges(rows: int, cols: int, w: float = 1.0):
    """4-neighbor grid, row-major vertex ids."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1, w))
            if r + 1 < rows:
                pairs.append((v, v + cols, w))
    return undirected(pairs)


@st.composite
def digraphs(draw, min_n: int = 1, max_n: int = 6):
    """(edges, n): a strongly connected digraph on ``min_n`` to ``max_n``
    vertices with weights in [0.01, 100], in shuffled order, sometimes
    symmetric."""
    n = draw(st.integers(min_n, max_n))
    cycle = draw(st.permutations(range(n)))
    pairs = {(cycle[i], cycle[(i + 1) % n]) for i in range(n)} if n > 1 else set()
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs |= {(a, b) for a, b in draw(st.lists(extra, max_size=n * n)) if a != b}
    weight = st.floats(0.01, 100.0)
    if draw(st.booleans()):
        pairs |= {(b, a) for a, b in pairs}
        w = {}
        for a, b in sorted(pairs):
            w[(a, b)] = w.get((b, a)) or draw(weight)
        edges = [(a, b, w[(a, b)]) for a, b in sorted(pairs)]
    else:
        edges = [(a, b, draw(weight)) for a, b in sorted(pairs)]
    return draw(st.permutations(edges)), n
