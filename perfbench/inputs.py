"""Seeded input generation for the benchmark workloads.

Everything the program sees (edge lists, signals, CLI seeds, the kept
sets of the query archive) is a function of the benchmark seed and the
workload name, so the same ``--seed`` always gives byte-identical inputs.
"""

from __future__ import annotations

import json
import os

import numpy as np

DIGRAPH_N = 12
DIGRAPH_OUT = 3  # 36 arcs
GRID_SIDE = 32  # signal-analyze
QUERY_SIDE = 24  # signal-query: calls short enough to pair with the reference kernel
LEVELS = 3
STATS_DRAWS = 1_000
STATS_Q = 1.0
COMPRESS_FRACTIONS = (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0)
RECONSTRUCT_FRACTION = 0.1
# share of each level's vertices kept in the query archive; close to the
# root share the tuned sampler gives on these grids
QUERY_KEEP_SHARE = 0.65

_STREAM = {"forest-stats": 1, "signal-analyze": 2, "signal-query": 3}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


def structure_rng(workload: str) -> np.random.Generator:
    """The same stream for every seed.  It draws the digraph's arcs and the
    query keep sets, which set how much work one operation does (walk
    lengths, Schur fill); the seed then draws only the weights, the signal
    and the program's seed, so operations cost alike across seeds."""
    return np.random.default_rng([0, _STREAM[workload], 1])


def _weight(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.5, 2.0))


def random_digraph(
    structure: np.random.Generator, rng: np.random.Generator
) -> list[tuple[int, int, float]]:
    """Strongly connected digraph with ``DIGRAPH_OUT`` out-arcs per vertex:
    its successor on a random Hamiltonian cycle plus random other targets,
    drawn from ``structure``.  Each arc has its own weight drawn from
    ``rng``, so the walk is non-reversible."""
    n = DIGRAPH_N
    order = structure.permutation(n)
    arcs = []
    for i in range(n):
        v, succ = int(order[i]), int(order[(i + 1) % n])
        others = [u for u in range(n) if u not in (v, succ)]
        extra = structure.choice(others, size=DIGRAPH_OUT - 1, replace=False)
        arcs += [(v, int(u)) for u in (succ, *extra)]
    return [(s, d, _weight(rng)) for s, d in sorted(arcs)]


def random_grid(rng: np.random.Generator, side: int) -> list[tuple[int, int, float]]:
    """Undirected 4-neighbour grid with random symmetric weights, one line
    per undirected edge (read with ``--undirected``)."""
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, _weight(rng)))
            if r + 1 < side:
                edges.append((v, v + side, _weight(rng)))
    return edges


def grid_signal(rng: np.random.Generator, side: int) -> np.ndarray:
    """Piecewise-smooth field with a jump along a random line, plus noise."""
    y, x = np.mgrid[0:side, 0:side] / side
    a, b = rng.uniform(0.5, 2.0, size=2)
    angle = rng.uniform(0.0, np.pi)
    offset = rng.uniform(-0.2, 0.2)
    smooth = np.sin(2 * np.pi * a * x) * np.cos(2 * np.pi * b * y)
    side_of_line = (x - 0.5) * np.cos(angle) + (y - 0.5) * np.sin(angle) > offset
    noise = rng.normal(0.0, 0.05, size=(side, side))
    return (smooth + 1.5 * side_of_line + noise).ravel()


def write_edges(path: str, edges) -> None:
    with open(path, "w") as fh:
        for s, d, w in edges:
            fh.write(f"{s}\t{d}\t{w!r}\n")


def write_signal(path: str, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("vertex,value\n")
        for v, x in enumerate(values):
            fh.write(f"{v},{float(x)!r}\n")


def query_keeps(rng: np.random.Generator) -> list[list[int]]:
    """Kept sets for each archive level, in that level's coordinates."""
    n = QUERY_SIDE * QUERY_SIDE
    keeps = []
    for _ in range(LEVELS):
        m = max(2, int(round(QUERY_KEEP_SHARE * n)))
        keeps.append(sorted(int(v) for v in rng.choice(n, size=m, replace=False)))
        n = m
    return keeps


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's input files into ``workdir`` and return the
    plan: file paths, program seed and workload parameters."""
    rng = rng_for(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    plan: dict = {"workload": workload, "seed": seed}
    edges_path = os.path.join(workdir, "graph.tsv")
    if workload == "forest-stats":
        write_edges(edges_path, random_digraph(structure_rng(workload), rng))
        plan.update(edges=edges_path, q=STATS_Q, draws=STATS_DRAWS)
    else:
        side = QUERY_SIDE if workload == "signal-query" else GRID_SIDE
        write_edges(edges_path, random_grid(rng, side))
        signal_path = os.path.join(workdir, "signal.csv")
        write_signal(signal_path, grid_signal(rng, side))
        plan.update(edges=edges_path, signal=signal_path, levels=LEVELS)
        if workload == "signal-query":
            keeps_path = os.path.join(workdir, "keeps.json")
            with open(keeps_path, "w") as fh:
                json.dump(query_keeps(structure_rng(workload)), fh)
            plan.update(
                keeps=keeps_path,
                archive=os.path.join(workdir, "pyramid.json"),
                fractions=list(COMPRESS_FRACTIONS),
                reconstruct_fraction=RECONSTRUCT_FRACTION,
            )
        else:
            plan["archive"] = os.path.join(workdir, "pyramid.json")
    plan["program_seed"] = int(rng.integers(0, 2**31))
    return plan
