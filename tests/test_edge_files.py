"""Edge files with weights at the ends of the double range: each command
gives its documented answer, or its documented exit with one line on
stderr, in bounded time.  pytest turns a numpy ``RuntimeWarning`` into an
error, so a warning printed before the error line fails these tests."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestnets import cli, sampler
from forestnets.errors import InvalidParams, NumericalError
from forestnets.network import build_network

#: a digraph whose killed solve at q = 1 overflows in its residual check
OVERFLOWING_GREEN = [
    (0, 1, 9.90466255191852e55),
    (1, 0, 4.155905629302466e255),
    (1, 2, 6.957657363352378e143),
    (2, 0, 1.726798581518387e198),
]
#: a digraph whose ``-L_DD`` solve for the hitting times of {0} does so
OVERFLOWING_HITTING = [
    (0, 4, 8.551669316380562e38),
    (1, 5, 5.874229668844443e-172),
    (2, 1, 1.4944345490896566e-109),
    (2, 3, 1.7057223489637074e151),
    (3, 0, 9.861757596972022e-86),
    (4, 2, 3.099776417097707e154),
    (5, 3, 9.700579868735589e-273),
]
#: a digraph whose every draw at q = 1e10 is one block of all four
#: vertices; a least-squares measure of that block overflows
ONE_BLOCK = [
    (0, 1, 5.57420730512208e114),
    (0, 2, 3.035476858346198e30),
    (1, 2, 526936.4483246958),
    (2, 3, 3.542410215882362e251),
    (3, 0, 1.5815879237516287e68),
    (3, 1, 6.1984660822036595e261),
    (3, 2, 7.294935852397744e93),
]
#: vertices 0 and 1 trade rates of 1e13, and leave each other at 1e-150:
#: a draw at q = 1 takes about 1e13 steps
TRAP = [
    (0, 1, 1e13),
    (1, 0, 1e13),
    (1, 2, 1e-150),
    (2, 3, 1e-150),
    (3, 0, 1e-150),
]


def edge_file(tmp_path, edges):
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"{s}\t{d}\t{w!r}\n" for s, d, w in edges))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "edges, argv, error",
    [
        (OVERFLOWING_GREEN, ["oracle", "green", "--q", "1"], "q Id - L"),
        (
            OVERFLOWING_GREEN,
            ["oracle", "edge-prob", "--q", "1", "--edges-in-forest", "0-1"],
            "q Id - L",
        ),
        (OVERFLOWING_HITTING, ["oracle", "hitting", "--targets", "0"], "-L_DD"),
    ],
)
def test_a_residual_that_overflows_is_one_error_line(
    tmp_path, capsys, edges, argv, error
):
    path = edge_file(tmp_path, edges)
    code, out, err = run(capsys, [*argv[:2], path, *argv[2:]])
    assert (code, out, err) == (4, "", f"error: {error} residual nan\n")


def test_a_one_block_draw_gets_the_exact_restricted_measure(tmp_path, capsys):
    net = build_network(ONE_BLOCK, 4)
    got = sampler.restricted_equilibrium(net, range(4))
    assert np.all(np.abs(got - net.mu) <= 1e-12 * net.mu)
    path = edge_file(tmp_path, ONE_BLOCK)
    code, out, err = run(capsys, [
        "forest", "equilibrium-check", path, "--q", "1e10", "--seed", "1",
        "--samples", "200", "--min-count", "1",
    ])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert [e["blocks"] for e in doc["entries"]] == [[[0, 1, 2, 3]]]
    assert doc["entries"][0]["count"] == 200
    # the draws put the root on vertex 1, where mu is 1 less about 1e-247
    assert 0.0 < doc["max_tv"] < 1e-200


def test_a_restricted_measure_that_is_not_finite_is_refused(monkeypatch, path3):
    monkeypatch.setattr(sampler, "_gth_measure", lambda L: np.full(2, np.nan))
    with pytest.raises(NumericalError, match="not finite"):
        sampler.restricted_equilibrium(path3, [0, 1])


def test_the_tv_fold_keeps_a_nan(monkeypatch, path3):
    monkeypatch.setattr(
        sampler, "restricted_equilibrium", lambda net, b: np.full(len(b), np.nan)
    )
    report = sampler.conditional_root_equilibrium_check(
        path3, 1.0, 50, seed=1, min_count=1
    )
    assert report.entries and all(np.isnan(e.max_tv) for e in report.entries)


def test_a_trap_is_refused_before_any_draw(tmp_path, capsys):
    # checked first, so that a bound blind to the trap fails here rather
    # than running the commands below for hours
    net = build_network(TRAP, 4)
    with pytest.raises(InvalidParams, match="needs at least 1e\\+13 walk steps"):
        sampler.check_sampling_args(net, 1.0)
    path = edge_file(tmp_path, TRAP)
    for words, steps in (
        (["sample"], "1e+13"),
        (["stats", "--samples", "10"], "1e+14"),
        (["walk", "--start", "0"], "1e+13"),
    ):
        argv = ["forest", words[0], path, "--q", "1", "--seed", "1", *words[1:]]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: sampling needs at least {steps} walk steps, "
            "more than the 1e+12 allowed\n"
        )


# ---------------------------------------------------------------------------
# the two-step bound never exceeds the mean steps of a draw


def exact_green_trace(n, edges, q, roots):
    """``sum_x (q + w(x)) G(x, x)`` over the vertices ``x`` outside
    ``roots``, ``G`` the inverse of ``q Id - L`` there, in exact
    rationals: the mean number of steps of a Wilson draw."""
    free = [x for x in range(n) if x not in roots]
    at = {x: i for i, x in enumerate(free)}
    exits = [Fraction(0)] * n
    for s, _, w in edges:
        exits[s] += Fraction(w)
    m = len(free)
    # Gauss-Jordan on [q Id - L | Id] over the free vertices
    A = [[Fraction(0)] * (2 * m) for _ in range(m)]
    for i, x in enumerate(free):
        A[i][i] = Fraction(q) + exits[x]
        A[i][m + i] = Fraction(1)
    for s, d, w in edges:
        if s in at and d in at:
            A[at[s]][at[d]] -= Fraction(w)
    for c in range(m):
        pivot = next(r for r in range(c, m) if A[r][c] != 0)
        A[c], A[pivot] = A[pivot], A[c]
        A[c] = [v / A[c][c] for v in A[c]]
        for r in range(m):
            if r != c and A[r][c] != 0:
                A[r] = [a - A[r][c] * b for a, b in zip(A[r], A[c])]
    return sum((Fraction(q) + exits[x]) * A[i][m + i] for i, x in enumerate(free))


@st.composite
def killed_digraphs(draw):
    """A strongly connected digraph on 2-5 vertices (a Hamiltonian cycle
    plus other arcs) with weights over 16 decades, a killing rate over 12
    and a forced root set that leaves a vertex free."""
    n = draw(st.integers(2, 5))
    order = draw(st.permutations(range(n)))
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    arcs |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    decade = st.floats(-8.0, 8.0)
    edges = [(s, d, 10.0 ** draw(decade)) for s, d in sorted(arcs)]
    q = 10.0 ** draw(st.floats(-6.0, 6.0))
    roots = draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    return n, edges, q, sorted(roots)


@settings(max_examples=60, deadline=None)
@given(drawn=killed_digraphs())
def test_two_step_bound_never_exceeds_the_mean_steps(drawn):
    n, edges, q, roots = drawn
    net = build_network(edges, n)
    (bound,) = sampler._two_step_bound(net, [q], roots)
    exact = float(exact_green_trace(n, edges, q, roots))
    # each free vertex is visited at least once
    assert (n - len(roots)) * (1.0 - 1e-12) <= bound <= exact * (1.0 + 1e-12)
