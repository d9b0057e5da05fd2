"""Property test: a damaged pyramid archive makes each signal query exit with
one of the documented codes and a one-line error, never a traceback."""

import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestnets import cli, fileio
from forestnets import wavelets as wv
from forestnets.network import build_network


def small_archive() -> dict:
    """A valid version 2 archive of a weighted 10-cycle with two levels:
    level 0 sparsified, so it stores ``next_edges``, and level 1 exact."""
    n = 10
    w = np.random.default_rng(2).uniform(0.5, 2.0, n)
    edges = [(i, (i + 1) % n, float(w[i])) for i in range(n)]
    edges += [((i + 1) % n, i, float(w[i])) for i in range(n)]
    pyr = wv.build_pyramid(
        build_network(edges, n),
        np.sin(np.arange(n) / 2.0),
        forced_keep=[[0, 2, 4, 6, 8], [0, 2, 3]],
        sparsify_theta=1.0,
    )
    assert [lvl.sparsified for lvl in pyr.levels] == [True, False]
    buf = io.StringIO()
    fileio.write_pyramid(buf, pyr)
    return json.loads(buf.getvalue())


ARCHIVE = small_archive()
QUERIES = [
    ["compress", "--fractions", "0,0.5,1"],
    ["bounds", "--p", "2"],
    ["reconstruct"],
]
NON_FINITE = [math.nan, math.inf, -math.inf]
# JSON numbers that no float holds: Python's json reads them as ints
HUGE = [10**400, -(10**400)]
JUNK = [None, True, "x", "1.5", [], {}, [None], [[0]], -1, 0, 2**70, 0.5]
JUNK += NON_FINITE + HUGE


def nodes(doc, path=()):
    """Every ``(path, value)`` of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from nodes(doc[key], path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


def replace(doc, path, value):
    """``doc`` with the node at ``path`` set to ``value``."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def levels_of(doc) -> list[dict]:
    levels = doc.get("levels") if isinstance(doc, dict) else None
    if not isinstance(levels, list):
        return []
    return [lv for lv in levels if isinstance(lv, dict)]


def tamper_edges(draw, edges: list, n: int) -> list:
    """One change to a stored edge list: an edge dropped or repeated, a
    weight nonpositive, non-finite or huge, an id out of range, a row cut
    short, or no edges at all."""
    if not edges:
        return [[0, 1, 1.0]]
    k = draw(st.integers(0, len(edges) - 1))
    edge = list(edges[k]) if isinstance(edges[k], list) else [edges[k]]
    change = draw(st.sampled_from(
        ["drop", "repeat", "weight", "id", "short", "empty", "reverse"]
    ))
    if change == "drop":
        return edges[:k] + edges[k + 1:]
    if change == "repeat":
        return edges + [edge]
    if change == "empty":
        return []
    if change == "short":
        return edges[:k] + [edge[:2]] + edges[k + 1:]
    if change == "reverse":
        return edges[:k] + [edge[1::-1] + edge[2:]] + edges[k + 1:]
    if change == "weight":
        weight = draw(st.sampled_from([0.0, -1.0, 1e300, *NON_FINITE]))
        return edges[:k] + [edge[:2] + [weight]] + edges[k + 1:]
    bad_id = draw(st.sampled_from([-1, n, n + 7, 0.5, 2**70]))
    return edges[:k] + [[bad_id] + edge[1:]] + edges[k + 1:]


@st.composite
def damaged_archives(draw):
    """:data:`ARCHIVE` after one to three changes: a key dropped, a node
    of the wrong type, a number made non-finite or too large for a float,
    a kept id out of range, a detail of the wrong length or a tampered
    ``next_edges``."""
    doc = copy.deepcopy(ARCHIVE)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["drop", "retype", "non-finite", "keep", "detail", "next_edges"]
        ))
        levels = levels_of(doc)
        if kind == "drop":
            table = dict(nodes(doc))
            keyed = [p for p in table if p and isinstance(table[p[:-1]], dict)]
            if keyed:
                path = draw(st.sampled_from(keyed))
                del table[path[:-1]][path[-1]]
        elif kind == "retype":
            path = draw(st.sampled_from([p for p, _ in nodes(doc)]))
            doc = replace(doc, path, copy.deepcopy(draw(st.sampled_from(JUNK))))
        elif kind == "non-finite":
            # edge lists have their own changes, below and under "retype"
            numbers = [
                p for p, v in nodes(doc)
                if isinstance(v, (int, float)) and not isinstance(v, bool)
                and "edges" not in p and "next_edges" not in p
            ]
            if numbers:
                path = draw(st.sampled_from(numbers))
                doc = replace(doc, path, draw(st.sampled_from(NON_FINITE + HUGE)))
        elif not levels:
            continue
        else:
            level = draw(st.sampled_from(levels))
            keep, detail = level.get("keep"), level.get("detail")
            size = 0
            if isinstance(keep, list) and isinstance(detail, list):
                size = len(keep) + len(detail)
            if kind == "keep" and isinstance(keep, list) and keep:
                i = draw(st.integers(0, len(keep) - 1))
                keep[i] = draw(st.sampled_from([-1, size, size + 3, 10**6]))
            elif kind == "detail" and isinstance(detail, list):
                if detail and draw(st.booleans()):
                    detail.pop()
                else:
                    detail.append(0.0)
            elif kind == "next_edges":
                edges = level.get("next_edges")
                if not isinstance(edges, list):
                    # a stored network where the archive had none
                    edges = copy.deepcopy(ARCHIVE["levels"][0]["next_edges"])
                level["next_edges"] = tamper_edges(draw, edges, max(size, 1))
    return doc


def query(path: str, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["signal", argv[0], path] + argv[1:])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "archive.json")


def test_undamaged_archive_answers_every_query(archive_path):
    with open(archive_path, "w") as fh:
        json.dump(ARCHIVE, fh)
    for argv in QUERIES:
        assert query(archive_path, argv) == (0, "")


@settings(max_examples=150, deadline=None)
@given(doc=damaged_archives())
def test_damaged_archive_exits_cleanly(archive_path, doc):
    with open(archive_path, "w") as fh:
        json.dump(doc, fh)
    for argv in QUERIES:
        code, err = query(archive_path, argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
