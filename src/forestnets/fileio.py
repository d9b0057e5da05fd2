"""File formats: edge lists, signals, forests, images, pyramid archives.

Forests are written, not read: no command takes a forest file as input.
All writers produce deterministic byte streams (stable ordering, shortest
round-trip float representation) so identical inputs yield identical
output files.  A pyramid archive is read into levels made as
:func:`wavelets.build_pyramid` makes them.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import IO, Sequence

import numpy as np
from scipy.sparse import csr_array

from .coarsegrain import check_invariant
from .errors import InvalidParams, MalformedInput, NumericalError, ValidationError
from .network import NOT_TRIPLES, Network, build_network
from .sampler import RootedForest
from .wavelets import Pyramid, PyramidLevel

PYRAMID_FORMAT = "forestnets-pyramid"
#: version 2 stores a level's reduced network only when it was sparsified;
#: version 1, which stored every level's, is no longer read
PYRAMID_VERSION = 2


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# edge lists


def read_edges(fh: IO[str], undirected: bool = False) -> list[tuple[int, int, float]]:
    """Parse tab-separated ``src dst weight`` lines.

    ``#`` starts a comment and blank lines are skipped.  With
    ``undirected`` every line also adds the reversed edge.
    """
    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 3:
            raise MalformedInput(
                f"line {lineno}: expected 'src<TAB>dst<TAB>weight', got {raw!r}"
            )
        try:
            src, dst, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MalformedInput(f"line {lineno}: {exc}") from None
        edges.append((src, dst, w))
        if undirected:
            edges.append((dst, src, w))
    if not edges:
        raise MalformedInput("edge list is empty")
    return edges


def read_network(fh: IO[str], undirected: bool = False) -> Network:
    return build_network(read_edges(fh, undirected))


def write_edges(fh: IO[str], net: Network) -> None:
    for src, dst, w in net.edges:
        fh.write(f"{src}\t{dst}\t{_fmt(w)}\n")


# ---------------------------------------------------------------------------
# signals


def read_signal(fh: IO[str], n: int | None = None) -> np.ndarray:
    """Parse ``vertex,value`` lines into a dense vector.

    Every vertex ``0..n-1`` must appear exactly once; ``n`` defaults to
    the largest id seen plus one.  A leading ``vertex,value`` header and
    ``#`` comments are tolerated.
    """
    seen: dict[int, float] = {}
    for lineno, raw in enumerate(fh, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if lineno == 1 and line.lower().replace(" ", "") == "vertex,value":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise MalformedInput(f"line {lineno}: expected 'vertex,value'")
        try:
            v, val = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise MalformedInput(f"line {lineno}: {exc}") from None
        if v in seen:
            raise MalformedInput(f"line {lineno}: vertex {v} listed twice")
        if not np.isfinite(val):
            raise InvalidParams(f"line {lineno}: signal value {val} is not finite")
        seen[v] = val
    if not seen:
        raise MalformedInput("signal file is empty")
    if n is None:
        n = max(seen) + 1
    values = np.empty(n)
    for v in range(n):
        if v not in seen:
            raise MalformedInput(f"vertex {v} missing from signal")
        values[v] = seen[v]
    if len(seen) != n:
        raise MalformedInput("signal mentions vertices outside the network")
    return values


def write_signal(fh: IO[str], values: Sequence[float]) -> None:
    fh.write("vertex,value\n")
    for v, val in enumerate(values):
        fh.write(f"{v},{_fmt(val)}\n")


# ---------------------------------------------------------------------------
# forests


def write_forest(fh: IO[str], forest: RootedForest) -> None:
    """One ``vertex<TAB>parent`` line per vertex, ``-1`` marking roots."""
    fh.write(f"# q={_fmt(forest.q)} roots={forest.roots.size}\n")
    for v, parent in enumerate(forest.parent):
        fh.write(f"{v}\t{int(parent)}\n")


# ---------------------------------------------------------------------------
# portable graymap images


def read_pgm(fh: IO[bytes]) -> tuple[np.ndarray, int]:
    """Read a P2 (ASCII) or P5 (binary) graymap.

    Returns (rows x cols float array, maxval).
    """
    data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise MalformedInput("not a P2/P5 graymap")
    binary = data[:2] == b"P5"

    # header tokens: magic, width, height, maxval, with '#' comments
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedInput("truncated graymap header")
        tokens.append(data[start:pos])
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise MalformedInput("malformed graymap header") from None
    if width <= 0 or height <= 0 or not (0 < maxval < 65536):
        raise MalformedInput("invalid graymap dimensions")

    if binary:
        pos += 1  # single whitespace byte after maxval
        if maxval > 255:
            raise MalformedInput("16-bit binary graymaps are not supported")
        raster = np.frombuffer(data, dtype=np.uint8, offset=pos)
        if raster.size < width * height:
            raise MalformedInput("graymap raster is truncated")
        pixels = raster[: width * height].astype(float)
    else:
        try:
            values = [int(t) for t in data[pos:].split()]
        except ValueError:
            raise MalformedInput("non-numeric graymap raster") from None
        if len(values) < width * height:
            raise MalformedInput("graymap raster is truncated")
        pixels = np.asarray(values[: width * height], dtype=float)
    if pixels.max(initial=0.0) > maxval:
        raise MalformedInput("pixel value exceeds maxval")
    return pixels.reshape(height, width), maxval


def write_pgm(fh: IO[bytes], image: np.ndarray, maxval: int = 255) -> None:
    """Write an ASCII (P2) graymap, clipping and rounding values."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise MalformedInput("image must be a 2-d array")
    pixels = np.clip(np.rint(img), 0, maxval).astype(int)
    rows, cols = pixels.shape
    fh.write(f"P2\n{cols} {rows}\n{maxval}\n".encode())
    for r in range(rows):
        fh.write((" ".join(str(v) for v in pixels[r]) + "\n").encode())


def image_geometry(meta: object, n: int) -> tuple[int, int, int]:
    """``(rows, cols, maxval)`` of an archive's image ``meta``: positive
    integers ``rows`` and ``cols`` with ``rows * cols == n``, and an
    integer ``maxval`` in ``1..65535`` (255 when absent); ``MalformedInput``
    otherwise."""
    if not isinstance(meta, dict) or not {"rows", "cols"} <= set(meta):
        raise MalformedInput("pyramid archive carries no image geometry")
    rows, cols, maxval = meta["rows"], meta["cols"], meta.get("maxval", 255)

    def is_int(x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)

    if not (is_int(rows) and is_int(cols) and rows > 0 and cols > 0):
        raise MalformedInput("image rows and cols must be positive integers")
    if rows * cols != n:
        raise MalformedInput(
            f"image geometry {rows}x{cols} does not match {n} base vertices"
        )
    if not (is_int(maxval) and 0 < maxval < 65536):
        raise MalformedInput("image maxval must be an integer in 1..65535")
    return rows, cols, maxval


def grid_network(rows: int, cols: int, weight: float = 1.0) -> Network:
    """Four-neighbor grid in row-major vertex order."""
    v = np.arange(rows * cols).reshape(rows, cols)
    pairs = np.concatenate(
        [
            np.column_stack([v[:, :-1].ravel(), v[:, 1:].ravel()]),
            np.column_stack([v[:-1, :].ravel(), v[1:, :].ravel()]),
        ]
    )
    pairs = np.concatenate([pairs, pairs[:, ::-1]])
    return Network(np.column_stack([pairs, np.full(len(pairs), weight)]), rows * cols)


# ---------------------------------------------------------------------------
# pyramid archives


def pyramid_to_dict(pyr: Pyramid, meta: dict | None = None) -> dict:
    doc = {
        "format": PYRAMID_FORMAT,
        "version": PYRAMID_VERSION,
        "seed": pyr.seed,
        "base": {
            "n": pyr.base.n,
            "edges": [list(e) for e in pyr.base.edges],
        },
        "levels": [
            {
                "keep": [int(v) for v in lvl.keep],
                "q_prime": lvl.q_prime,
                "q_tuning": lvl.q_tuning,
                "detail": [float(x) for x in lvl.detail],
                "next_edges": (
                    [list(e) for e in lvl.next_network.edges]
                    if lvl.sparsified
                    else None
                ),
            }
            for lvl in pyr.levels
        ],
        "apex": [float(x) for x in pyr.apex],
    }
    if meta:
        doc["meta"] = meta
    return doc


def write_pyramid(fh: IO[str], pyr: Pyramid, meta: dict | None = None) -> None:
    json.dump(pyramid_to_dict(pyr, meta), fh, sort_keys=True, indent=2)
    fh.write("\n")


#: the Python types of JSON numbers; a string or a boolean is not one
_JSON_NUMBERS = frozenset({int, float})


def _numbers(values, what: str) -> list:
    """``values``, checked to be a JSON list of numbers: ``TypeError``
    naming ``what`` on anything else.  The check is one pass of ``type``
    over the list, run in C, as the float conversion that follows is."""
    if not (isinstance(values, list) and set(map(type, values)) <= _JSON_NUMBERS):
        raise TypeError(f"{what} must be a list of numbers")
    return values


def _number(x, what: str) -> float:
    """The JSON number ``x`` as a float; ``TypeError`` naming ``what`` on
    anything else."""
    if type(x) not in _JSON_NUMBERS:
        raise TypeError(f"{what} must be a number")
    return float(x)


def _archived_network(edges, n: int, where: str, mu=None) -> Network:
    """Network of an archive's edge list, with invariant measure ``mu`` if
    given; a validation error, or an entry that is not a JSON number, is a
    malformed archive, reported with ``where`` (the base or a level)."""
    try:
        if not set(map(type, chain.from_iterable(edges))) <= _JSON_NUMBERS:
            raise InvalidParams(NOT_TRIPLES)
        return Network(edges, n, mu)
    except ValidationError as exc:
        raise MalformedInput(f"{where}: {exc}") from None


def read_pyramid(fh: IO[str]) -> tuple[Pyramid, dict]:
    """Inverse of :func:`write_pyramid`: (pyramid, metadata dict).

    A level whose ``next_edges`` is null runs the next level on its exact
    Schur reduction, recomputed here; the level's reduction keeps that
    Schur complement for later queries.  A level with an edge list (a
    sparsified level) runs it on that network, which must leave
    ``mu(. | keep)`` invariant: that is checked on its edges, and no dense
    copy of its generator is formed.
    Either way the next network carries ``mu(. | keep)`` as its measure.
    A level is made by :meth:`PyramidLevel.of`, whose checks of ``keep``
    and ``q_prime`` report a malformed level.  Every number must be a JSON
    number, the base ``n`` an integer and a ``q_tuning`` finite: a string
    or a boolean in a number's place is a malformed archive.
    """
    try:
        doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid pyramid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != PYRAMID_FORMAT:
        raise MalformedInput("not a pyramid archive")
    version = doc.get("version")
    if version != PYRAMID_VERSION:
        raise MalformedInput(f"unsupported pyramid version {version}")
    try:
        n = doc["base"]["n"]
        if type(n) is not int:
            raise TypeError("base n must be an integer")
        base = _archived_network(doc["base"]["edges"], n, "base")
        levels: list[PyramidLevel] = []
        current = base
        for li, entry in enumerate(doc["levels"]):
            keep = _numbers(entry["keep"], f"level {li}: keep")
            q_prime = _number(entry["q_prime"], f"level {li}: q_prime")
            try:
                level = PyramidLevel.of(current, keep, q_prime)
            except InvalidParams as exc:
                raise MalformedInput(f"level {li}: {exc}") from None
            detail = _numbers(entry["detail"], f"level {li}: detail")
            level.detail = np.asarray(detail, dtype=float)
            if level.detail.size != level.dropped.size:
                raise MalformedInput(
                    f"level {li}: detail length does not match dropped set"
                )
            if not np.isfinite(level.detail).all():
                raise MalformedInput(f"level {li}: detail is not finite")
            next_edges = entry["next_edges"]
            where = f"level {li}: next_edges"
            if isinstance(next_edges, list):
                stored = level.stored_next = _archived_network(
                    next_edges, level.keep.size, where, level.reduction.mu
                )
                rates = csr_array(
                    (stored.w, (stored.src, stored.dst)), shape=(stored.n, stored.n)
                )
                try:
                    check_invariant(stored.mu, rates)
                except NumericalError as exc:
                    raise MalformedInput(f"{where}: {exc}") from None
            elif next_edges is not None:
                raise MalformedInput(f"{where}: must be null or an edge list")
            if entry.get("q_tuning") is not None:
                q_tuning = _number(entry["q_tuning"], f"level {li}: q_tuning")
                if not math.isfinite(q_tuning):
                    raise ValueError(f"level {li}: q_tuning is not finite")
                level.q_tuning = q_tuning
            levels.append(level)
            current = level.next_network
        apex = np.asarray(_numbers(doc["apex"], "apex"), dtype=float)
        if apex.size != current.n:
            raise MalformedInput("apex length does not match final network")
        if not np.isfinite(apex).all():
            raise MalformedInput("apex is not finite")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a JSON number beyond float range
        raise MalformedInput(f"malformed pyramid archive: {exc}") from None
    pyr = Pyramid(base=base, levels=levels, apex=apex, seed=doc.get("seed"))
    return pyr, doc.get("meta", {})
