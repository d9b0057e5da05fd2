"""Command line interface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import forestnets
from forestnets import cli, fileio, oracle, sampler
from forestnets import coarsegrain as cg
from forestnets import wavelets as wv
from forestnets.errors import NumericalError
from forestnets.network import build_network, skeleton

import forest_enum as fe
from netdefs import cycle_edges, grid_edges


@pytest.fixture
def two_file(tmp_path):
    path = tmp_path / "two.tsv"
    path.write_text("0\t1\t2.0\n1\t0\t1.0\n")
    return str(path)


@pytest.fixture
def path3_file(tmp_path):
    path = tmp_path / "path3.tsv"
    path.write_text("0\t1\t1.0\n1\t2\t1.0\n")
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle32.tsv"
    lines = [f"{i}\t{(i + 1) % 32}\t1.0" for i in range(32)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def signal_file(tmp_path):
    path = tmp_path / "sig.csv"
    rows = ["vertex,value"] + [
        f"{i},{float(np.sin(i / 4.0))!r}" for i in range(32)
    ]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# graph and oracle output


def test_graph_info_text(capsys, two_file):
    code, out, _ = run(capsys, ["graph", "info", two_file])
    assert code == 0
    assert out.splitlines() == [
        "n=2",
        "edges=2",
        "w_max=2.0",
        "reversible=yes",
        "mu=0.3333333333333333,0.6666666666666666",
    ]


def test_graph_info_json(capsys, two_file):
    code, out, _ = run(capsys, ["graph", "info", two_file, "--json"])
    doc = json.loads(out)
    assert code == 0
    assert doc["n"] == 2 and doc["reversible"] is True
    assert doc["mu"] == pytest.approx([1 / 3, 2 / 3])


def test_graph_reduce_golden(capsys, path3_file):
    code, out, _ = run(
        capsys, ["graph", "reduce", path3_file, "--undirected", "--keep", "0,2"]
    )
    assert code == 0
    assert out == "0\t1\t0.5\n1\t0\t0.5\n"


def test_graph_reduce_json_golden(capsys, path3_file):
    code, out, _ = run(
        capsys,
        ["graph", "reduce", path3_file, "--undirected", "--keep", "0,2", "--json"],
    )
    assert code == 0
    assert json.loads(out) == {
        "kept": [0, 2], "mu": [0.5, 0.5], "edges": [[0, 1, 0.5], [1, 0, 0.5]]
    }


def test_oracle_partition(capsys, two_file):
    code, out, _ = run(capsys, ["oracle", "partition", two_file, "--q", "3"])
    assert code == 0
    assert float(out) == pytest.approx(18.0)


def test_oracle_root_count_text(capsys, two_file):
    code, out, _ = run(capsys, ["oracle", "root-count", two_file, "--q", "3"])
    assert code == 0
    assert out.strip() == "1:0.5 2:0.5"


def test_oracle_root_prob(capsys, two_file):
    code, out, _ = run(
        capsys, ["oracle", "root-prob", two_file, "--q", "3", "--vertices", "0"]
    )
    assert code == 0
    assert float(out) == pytest.approx(2 / 3)


def test_oracle_green_json(capsys, two_file):
    code, out, _ = run(capsys, ["oracle", "green", two_file, "--q", "3"])
    doc = json.loads(out)
    assert code == 0
    assert np.allclose(doc["G"], np.array([[4, 2], [1, 5]]) / 18.0)
    assert np.allclose(np.sum(doc["K"], axis=1), 1.0)


def test_oracle_mean_root_hitting(capsys, two_file):
    code, out, _ = run(
        capsys, ["oracle", "mean-root-hitting", two_file, "--root-count", "1"]
    )
    assert code == 0
    assert float(out) == pytest.approx(1 / 3)
    code, _, err = run(capsys, ["oracle", "mean-root-hitting", two_file])
    assert code == 2


def test_oracle_hitting_csv(capsys, path3_file, tmp_path):
    out_path = tmp_path / "h.csv"
    code, _, _ = run(
        capsys,
        [
            "oracle", "hitting", path3_file, "--undirected",
            "--targets", "0", "--output", str(out_path),
        ],
    )
    assert code == 0
    values = fileio.read_signal(open(out_path))
    assert np.allclose(values, [0.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# sampling commands


def test_forest_sample_deterministic(capsys, two_file):
    code, out1, _ = run(
        capsys, ["forest", "sample", two_file, "--q", "3", "--seed", "5"]
    )
    assert code == 0
    _, out2, _ = run(
        capsys, ["forest", "sample", two_file, "--q", "3", "--seed", "5"]
    )
    assert out1 == out2
    assert out1.startswith("# q=3.0")
    assert len(out1.strip().splitlines()) == 3


def test_forest_stats_thread_independent(capsys, two_file):
    argv = ["forest", "stats", two_file, "--q", "3", "--seed", "1",
            "--samples", "500"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    assert json.loads(out1)["chi2_pvalue"] > 1e-3


@pytest.mark.parametrize("command", [
    ["forest", "stats", "{edges}", "--q", "3", "--seed", "1", "--samples", "5"],
    ["tune", "{edges}", "--seed", "1"],
    ["signal", "analyze", "{edges}", "{signal}", "--seed", "1"],
])
def test_threads_is_an_unknown_argument(capsys, cycle_file, signal_file, command):
    argv = [a.format(edges=cycle_file, signal=signal_file) for a in command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--threads", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 3" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--seed", str(2**64)],
    ["--seed", "1", "--sample-index", "-1"],
    ["--seed", "1", "--sample-index", str(2**64)],
])
def test_seed_outside_domain_exits_2(capsys, two_file, flags):
    code, out, err = run(
        capsys, ["forest", "sample", two_file, "--q", "3"] + flags
    )
    assert code == 2 and out == ""
    assert "[0, 2**64)" in err


def test_largest_seed_accepted(capsys, two_file):
    top = str(2**64 - 1)
    code, out, _ = run(
        capsys, ["forest", "stats", two_file, "--q", "3", "--seed", top,
                 "--samples", "20"]
    )
    assert code == 0 and json.loads(out)["n_samples"] == 20


def test_largest_seed_analyzes(capsys, cycle_file, signal_file, tmp_path):
    # the per-level tuning seeds wrap around instead of leaving the domain
    pyr_path = tmp_path / "pyr.json"
    code, _, err = run(
        capsys,
        [
            "signal", "analyze", cycle_file, signal_file, "--undirected",
            "--seed", str(2**64 - 1), "--levels", "2",
            "--output", str(pyr_path),
        ],
    )
    assert code == 0, err
    assert pyr_path.exists()


def test_forest_walk(capsys, two_file):
    code, out, _ = run(
        capsys,
        ["forest", "walk", two_file, "--q", "1", "--start", "0", "--seed", "2"],
    )
    assert code == 0
    path = [int(tok) for tok in out.strip().split(",")]
    assert path[0] == 0 and len(path) >= 1


def test_forest_roots_target_json(capsys, cycle_file):
    code, out, _ = run(
        capsys,
        [
            "forest", "roots-target", cycle_file, "--undirected",
            "--m", "4", "--seed", "9", "--json",
        ],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["converged"] is True
    assert len(doc["roots"]) >= 1
    assert len(doc["parent"]) == 32


def test_tune_json(capsys, two_file):
    code, out, _ = run(
        capsys, ["tune", two_file, "--seed", "4", "--samples", "32", "--json"]
    )
    doc = json.loads(out)
    assert code == 0
    assert len(doc["records"]) == 7
    assert any(r["q"] == doc["chosen_q"] for r in doc["records"])


def test_tune_text_lists_the_json_records(capsys, two_file):
    argv = ["tune", two_file, "--seed", "4", "--grid", "0.5,2", "--samples", "8"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(run(capsys, argv + ["--json"])[1])
    want = [
        f"q={r['q']!r} objective={r['objective']!r} w_tilde={r['w_tilde']!r} "
        f"one_over_beta_tilde={r['one_over_beta_tilde']!r} "
        f"mean_roots={r['mean_roots']!r}"
        for r in doc["records"]
    ]
    assert out.splitlines() == want + [f"chosen q={doc['chosen_q']!r}"]


def test_forest_equilibrium_check_reports_the_library_check(capsys, path3_file):
    argv = [
        "forest", "equilibrium-check", path3_file, "--undirected", "--q", "1",
        "--seed", "2", "--samples", "300", "--min-count", "20",
    ]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    with open(path3_file) as fh:
        net = fileio.read_network(fh, True)
    report = sampler.conditional_root_equilibrium_check(
        net, 1.0, 300, seed=2, min_count=20
    )
    assert report.entries
    assert json.loads(out) == {
        "n_samples": 300,
        "min_count": 20,
        "max_tv": report.max_tv,
        "entries": [
            {
                "blocks": [list(b) for b in e.blocks],
                "count": e.count,
                "max_tv": e.max_tv,
            }
            for e in report.entries
        ],
    }


def test_forest_equilibrium_check_groups_by_partition_alone(capsys, tmp_path):
    # two strongly bound pairs {0, 3} and {1, 2}, weakly coupled; their
    # blocks interleave in vertex order, so the two roots' ids order the
    # blocks either way
    path = tmp_path / "pairs.tsv"
    path.write_text(
        "0\t3\t5.0\n3\t0\t1.0\n1\t2\t5.0\n2\t1\t1.0\n"
        "0\t1\t0.01\n1\t0\t0.01\n3\t2\t0.01\n2\t3\t0.01\n"
    )
    argv = [
        "forest", "equilibrium-check", str(path), "--q", "0.05", "--seed", "1",
        "--samples", "20000", "--min-count", "200",
    ]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    blocks = [e["blocks"] for e in doc["entries"]]
    assert blocks == [[[0, 1, 2, 3]], [[0, 3], [1, 2]]]
    assert doc["max_tv"] <= 0.02


# ---------------------------------------------------------------------------
# signal pipeline


def test_signal_pipeline_roundtrip(capsys, cycle_file, signal_file, tmp_path):
    pyr_path = tmp_path / "pyr.json"
    code, _, _ = run(
        capsys,
        [
            "signal", "analyze", cycle_file, signal_file, "--undirected",
            "--seed", "7", "--levels", "3", "--output", str(pyr_path),
        ],
    )
    assert code == 0
    rec_path = tmp_path / "rec.csv"
    code, _, _ = run(
        capsys,
        ["signal", "reconstruct", str(pyr_path), "--output", str(rec_path)],
    )
    assert code == 0
    orig = fileio.read_signal(open(signal_file))
    rec = fileio.read_signal(open(rec_path))
    assert np.abs(orig - rec).max() < 1e-10

    # byte-identical on re-run
    pyr2 = tmp_path / "pyr2.json"
    run(
        capsys,
        [
            "signal", "analyze", cycle_file, signal_file, "--undirected",
            "--seed", "7", "--levels", "3", "--output", str(pyr2),
        ],
    )
    assert pyr_path.read_bytes() == pyr2.read_bytes()


def test_signal_compress_csv(capsys, cycle_file, signal_file, tmp_path):
    pyr_path = tmp_path / "pyr.json"
    run(
        capsys,
        [
            "signal", "analyze", cycle_file, signal_file, "--undirected",
            "--seed", "7", "--levels", "2", "--output", str(pyr_path),
        ],
    )
    code, out, _ = run(
        capsys,
        ["signal", "compress", str(pyr_path), "--fractions", "0.25,1.0"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "fraction,keep_count,total_details,rel_error"
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[3]) == 0.0


def test_signal_bounds_json(capsys, cycle_file, signal_file, tmp_path):
    pyr_path = tmp_path / "pyr.json"
    run(
        capsys,
        [
            "signal", "analyze", cycle_file, signal_file, "--undirected",
            "--seed", "7", "--levels", "2", "--output", str(pyr_path),
        ],
    )
    code, out, _ = run(capsys, ["signal", "bounds", str(pyr_path), "--p", "inf"])
    doc = json.loads(out)
    assert code == 0
    assert doc["all_dominated"] is True
    assert doc["p"] == "inf"
    assert len(doc["levels"]) == 2


def test_image_pipeline(capsys, tmp_path):
    img_path = tmp_path / "img.pgm"
    pixels = [(3 * r + 5 * c) % 64 for r in range(6) for c in range(6)]
    img_path.write_bytes(
        b"P2\n6 6\n255\n" + " ".join(str(p) for p in pixels).encode() + b"\n"
    )
    pyr_path = tmp_path / "imgpyr.json"
    code, _, _ = run(
        capsys,
        [
            "signal", "image-analyze", str(img_path),
            "--seed", "3", "--levels", "2", "--output", str(pyr_path),
        ],
    )
    assert code == 0
    out_path = tmp_path / "out.pgm"
    code, _, _ = run(
        capsys,
        ["signal", "image-reconstruct", str(pyr_path), "--output", str(out_path)],
    )
    assert code == 0
    image, maxval = fileio.read_pgm(open(out_path, "rb"))
    assert maxval == 255
    assert np.array_equal(image.ravel(), np.asarray(pixels, dtype=float))


# ---------------------------------------------------------------------------
# pyramid archives: goldens and malformed levels

#: a nonreversible 8-vertex network: a weighted ring, four back edges and
#: two chords
GOLDEN_EDGES = [
    (0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 4, 1.5), (4, 5, 1.0),
    (5, 6, 3.0), (6, 7, 1.0), (7, 0, 2.5), (1, 0, 0.5), (3, 2, 1.0),
    (5, 4, 2.0), (7, 6, 0.5), (0, 4, 0.75), (6, 2, 1.25),
]
GOLDEN_KEEPS = [[0, 2, 3, 5, 7], [0, 2, 4], [1, 2]]
GOLDEN_SIGNAL = [0.5, -1.0, 2.0, 0.25, 1.5, -0.75, 3.0, 1.0]

#: ``signal bounds`` on the golden archive, by ``--p``: (analysis measured,
#: analysis bound, gap measured, gap bound), then per level the measured
#: and bound values of the approximation, detail and detail-size checks
BOUNDS_GOLDEN = {
    "2": (
        (0.24859235166614105, 4.988663069489342, 1.27980313418496, 1321.565686619218),
        [
            (1.416189295916606, 2.967280069388944, 0.971687312311959,
             1.426757462702237, 0.1336443605636548, 0.410380089852069),
            (0.5817082063438838, 0.8000200046371464, 1.182722528755305,
             2.38815538088169, 0.14338188342997088, 0.19460907178550357),
            (0.637129336020031, 1.0290031991044535, 0.0265753776624075,
             0.026575377662407494, 0.006186558063167036, 0.07120993422520443),
        ],
    ),
    "inf": (
        (0.8460518721681327, 6.000000000000003, 2.257349178691954, 1947.240077313157),
        [
            (1.9999999999999951, 2.6578039046972117, 2.658317581257873,
             6.125688339420315, 0.34673707581624436, 0.9450000000000012),
            (1.020878442753463, 1.4780513318979989, 1.4125224936759175,
             7.1541914266553555, 0.3765363908765975, 0.5255442433485162),
            (0.9039312827092173, 1.187201820623025, 0.0505346445374818,
             0.050534644537481785, 0.006186558063167036, 0.086644760875895),
        ],
    ),
}


def golden_pyramid():
    net = build_network(GOLDEN_EDGES, 8)
    return wv.build_pyramid(net, GOLDEN_SIGNAL, forced_keep=GOLDEN_KEEPS)


@pytest.fixture
def golden_archive(tmp_path):
    path = tmp_path / "golden.json"
    with open(path, "w") as fh:
        fileio.write_pyramid(fh, golden_pyramid())
    return str(path)


def test_signal_compress_golden(capsys, golden_archive):
    code, out, _ = run(
        capsys,
        ["signal", "compress", golden_archive, "--fractions", "0,0.25,0.5,1"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[1:3] for r in rows] == [["0", "6"], ["2", "6"], ["3", "6"], ["6", "6"]]
    assert [float(r[3]) for r in rows] == pytest.approx(
        [0.7256112206099476, 0.552999530290177, 0.49839703138393465, 0.0],
        rel=1e-10,
        abs=1e-12,
    )


@pytest.mark.parametrize("p", sorted(BOUNDS_GOLDEN))
def test_signal_bounds_golden(capsys, golden_archive, p):
    code, out, _ = run(capsys, ["signal", "bounds", golden_archive, "--p", p])
    assert code == 0
    doc = json.loads(out)
    totals, levels = BOUNDS_GOLDEN[p]
    assert doc["all_dominated"] is True
    keys = ["analysis_measured", "analysis_bound", "approx_gap_measured",
            "approx_gap_bound"]
    assert [doc[k] for k in keys] == pytest.approx(totals, rel=1e-10)
    assert [lv["q_prime"] for lv in doc["levels"]] == pytest.approx(
        [50 / 3, 9.0, 100 / 9], rel=1e-10
    )
    fields = ["approx_measured", "approx_bound", "detail_measured",
              "detail_bound", "detail_size_measured", "detail_size_bound"]
    assert len(doc["levels"]) == len(levels)
    for got, want in zip(doc["levels"], levels):
        assert [got[f] for f in fields] == pytest.approx(want, rel=1e-10)


#: changes to level 0 of the golden archive that make it malformed; the
#: padded detail keeps the out-of-range id from tripping the length check
BAD_LEVEL0 = {
    "q-zero": {"q_prime": 0.0},
    "q-negative": {"q_prime": -1.0},
    "q-nan": {"q_prime": float("nan")},
    "q-inf": {"q_prime": float("inf")},
    "keep-out-of-range": {"keep": [0, 2, 3, 5, 99], "detail": [0.0] * 4},
    "keep-empty": {"keep": []},
    "keep-everything": {"keep": list(range(8)), "detail": []},
    "keep-repeated": {"keep": [0, 2, 3, 5, 5]},
    "keep-non-integral-id": {"keep": [0, 2.7, 3, 5, 7]},
    # changes to the reduced network, as functions of its edge list
    "edge-negative-weight": lambda e: [e[0][:2] + [-e[0][2]]] + e[1:],
    "edge-deleted": lambda e: e[1:],
    "edge-duplicate": lambda e: e + [e[0][:2] + [2.0]],
    "edge-non-integral-id": lambda e: [[e[0][0] + 0.5] + e[0][1:]] + e[1:],
    "edge-two-elements": lambda e: [e[0][:2]] + e[1:],
}


def assert_level0_malformed(capsys, tmp_path, archive, change, cmd):
    doc = json.loads(open(archive).read())
    level = doc["levels"][0]
    if callable(change):
        change = {"next_edges": change(level["next_edges"])}
    level.update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["signal", cmd[0], str(bad)] + cmd[1:])
    assert code == 3
    assert out == ""
    assert err.startswith("error: level 0: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("cmd", [["reconstruct"], ["bounds", "--p", "2"]])
@pytest.mark.parametrize("change", list(BAD_LEVEL0.values()), ids=list(BAD_LEVEL0))
def test_malformed_archive_level_exits_3(
    capsys, golden_archive, sparsified_archives, tmp_path, change, cmd
):
    # a version 2 archive stores a reduced network only for a sparsified
    # level, so the changes to one run against the sparsified archive
    archive = sparsified_archives[1] if callable(change) else golden_archive
    assert_level0_malformed(capsys, tmp_path, archive, change, cmd)


KEEP_AND_Q = {k: v for k, v in BAD_LEVEL0.items() if not callable(v)}


@pytest.mark.parametrize("cmd", [["reconstruct"], ["bounds", "--p", "2"]])
@pytest.mark.parametrize("change", list(KEEP_AND_Q.values()), ids=list(KEEP_AND_Q))
def test_malformed_v1_archive_level_exits_3(capsys, tmp_path, change, cmd):
    # a level that stores its reduced network checks its kept set and q'
    # as an exact level does
    v1 = tmp_path / "v1.json"
    v1.write_text(v1_archive(golden_pyramid()))
    assert_level0_malformed(capsys, tmp_path, str(v1), change, cmd)


def test_archive_reduced_network_must_keep_measure(capsys, tmp_path):
    doc = json.loads(v1_archive(golden_pyramid()))
    del doc["levels"][0]["next_edges"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["signal", "reconstruct", str(bad)])
    assert (code, out) == (3, "")
    assert err.startswith("error: level 0: next_edges: conditioned measure residual")


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 1, 2.0]], "not backward-reachable"),
        ([[0, 1, 2.0], [1, 0, "x"]], "triples"),
        ([[0, 1, 2.0], [1, 0, 0.0]], "has weight 0.0"),
    ],
)
def test_malformed_archive_base_exits_3(capsys, golden_archive, tmp_path, edges, message):
    doc = json.loads(open(golden_archive).read())
    doc["base"] = {"n": 2, "edges": edges}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["signal", "bounds", str(bad), "--p", "2"])
    assert (code, out) == (3, "")
    assert err.startswith("error: base: ") and message in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# exit codes and dry runs


def test_exit_validation(capsys, two_file, tmp_path):
    code, _, err = run(capsys, ["oracle", "partition", two_file, "--q", "-1"])
    assert code == 2 and "error:" in err
    oneway = tmp_path / "oneway.tsv"
    oneway.write_text("0\t1\t1.0\n")
    code, _, _ = run(capsys, ["graph", "info", str(oneway)])
    assert code == 2


def test_exit_io(capsys, tmp_path):
    code, _, _ = run(capsys, ["graph", "info", str(tmp_path / "missing.tsv")])
    assert code == 3
    bad = tmp_path / "bad.tsv"
    bad.write_text("garbage\n")
    code, _, _ = run(capsys, ["graph", "info", str(bad)])
    assert code == 3


def test_exit_numerical(capsys, two_file, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(oracle, "partition_fn", boom)
    code, _, err = run(capsys, ["oracle", "partition", two_file, "--q", "1"])
    assert code == 4 and "synthetic failure" in err


def test_missing_seed_is_usage_error(two_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["forest", "sample", two_file, "--q", "3"])
    assert exc.value.code == 2


def test_dry_run_skips_output(capsys, cycle_file, signal_file, tmp_path):
    target = tmp_path / "never.json"
    code, out, _ = run(
        capsys,
        [
            "signal", "analyze", cycle_file, signal_file, "--undirected",
            "--seed", "1", "--dry-run", "--output", str(target),
        ],
    )
    assert code == 0
    assert "dry-run" in out
    assert not target.exists()


@pytest.fixture
def image_archive(tmp_path):
    path = tmp_path / "image.json"
    with open(path, "w") as fh:
        meta = {"rows": 2, "cols": 4, "maxval": 255}
        fileio.write_pyramid(fh, golden_pyramid(), meta)
    return str(path)


def test_oracle_green_of_large_rates(capsys, tmp_path):
    # an absolute residual check refused these rates at q = 1 (exit 4)
    path = tmp_path / "grid.tsv"
    lines = [f"{a}\t{b}\t{1e8 * w!r}\n" for a, b, w in grid_edges(6, 6)]
    path.write_text("".join(lines))
    code, out, _ = run(capsys, ["oracle", "green", str(path), "--q", "1"])
    assert code == 0
    assert np.asarray(json.loads(out)["K"]).sum(axis=1) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("cmd", [
    ["green"], ["root-prob", "--vertices", "0"], ["partition"],
    ["path-prob", "--path", "0,1"],
])
def test_oracle_of_overflowing_q_exits_4(capsys, tmp_path, cmd):
    # q Id - L overflows: a numerical error, not a traceback or NaN output
    path = tmp_path / "huge.tsv"
    path.write_text("0\t1\t1.5e308\n1\t0\t1.0\n")
    argv = ["oracle", cmd[0], str(path), "--q", "1.5e308"] + cmd[1:]
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert err.splitlines() == ["error: q Id - L overflows"]


#: a directed 7-cycle whose rate elimination underflows a pivot to zero
UNDERFLOWING_CYCLE = [
    (0, 4, 6.028154402291785e-269),
    (1, 2, 1.028574166965101e124),
    (2, 5, 9.04831180449112e174),
    (3, 6, 1.962978761967724e181),
    (4, 3, 2.3063398915802373e-120),
    (5, 0, 4.7788600551255284e179),
    (6, 1, 1.5214119514936686e-181),
]


def test_network_whose_elimination_pivot_underflows_exits_4(capsys, tmp_path):
    # a zero pivot made the triangular solves raise LinAlgError (exit 1)
    with pytest.raises(NumericalError):
        build_network(UNDERFLOWING_CYCLE, 7)
    path = tmp_path / "cycle7.tsv"
    path.write_text("".join(f"{a}\t{b}\t{w!r}\n" for a, b, w in UNDERFLOWING_CYCLE))
    code, out, err = run(capsys, ["graph", "info", str(path)])
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_oracle_partition_that_overflows_exits_4(capsys, tmp_path):
    # Z is about 1e332 here; math.exp raised OverflowError (exit 1)
    path = tmp_path / "cycle12.tsv"
    lines = [f"{a}\t{b}\t{w!r}\n" for a, b, w in cycle_edges(12, 1e30)]
    path.write_text("".join(lines))
    code, out, err = run(capsys, ["oracle", "partition", str(path), "--q", "1"])
    assert code == 4 and out == ""
    assert err.splitlines() == ["error: partition function overflows"]


def test_no_vertex_or_edge_query_forms_the_green_function(
    capsys, tmp_path, monkeypatch
):
    # root, path and partition queries read forest determinants, and edge
    # queries solve q Id - L for their endpoints' columns; none inverts it
    # through green
    def never(*args, **kwargs):
        raise AssertionError("oracle.green was called")

    monkeypatch.setattr(oracle, "green", never)
    net = build_network(GOLDEN_EDGES, 8)
    edges = [(0, 1), (2, 3), (6, 2)]
    for B in [(), (5,)]:
        probs = [
            oracle.root_inclusion_prob(net, 0.7, [0, 3], B),
            oracle.edge_inclusion_prob(net, 0.7, edges, B),
            oracle.edge_inclusion_prob(net, 0.7, edges, B, signed=True),
            oracle.lerw_path_prob(net, 0.7, [0, 1, 2], B),
        ]
        assert all(0.0 < x < 1.0 for x in probs)
        assert oracle.partition_fn(net, 0.7, B) > 0.0
    path = tmp_path / "golden.tsv"
    path.write_text("".join(f"{a}\t{b}\t{w!r}\n" for a, b, w in GOLDEN_EDGES))
    queries = [
        (["root-prob", "--vertices", "0,3"],
         oracle.root_inclusion_prob(net, 0.7, [0, 3])),
        (["edge-prob", "--edges-in-forest", "0-1,6-2", "--roots", "5"],
         oracle.edge_inclusion_prob(net, 0.7, [(0, 1), (6, 2)], [5])),
        (["edge-prob", "--edges-in-forest", "1-0,2-3", "--signed"],
         oracle.edge_inclusion_prob(net, 0.7, [(1, 0), (2, 3)], signed=True)),
    ]
    for (cmd, *options), want in queries:
        argv = ["oracle", cmd, str(path), "--q", "0.7"] + options
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(want, rel=1e-15)


@pytest.fixture
def empty_archive(tmp_path):
    path = tmp_path / "empty.json"
    with open(path, "w") as fh:
        net = build_network(GOLDEN_EDGES, 8)
        fileio.write_pyramid(fh, wv.build_pyramid(net, GOLDEN_SIGNAL, forced_keep=[]))
    return str(path)


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize("argv", [
    ["graph", "reduce", "{edges}", "--undirected", "--keep", "0,2",
     "--sparsify-theta", "0.5"],
    ["signal", "reconstruct", "{archive}", "--keep-fraction", "2"],
    ["signal", "image-reconstruct", "{image}", "--keep-fraction", "2"],
    ["signal", "reconstruct", "{archive}", "--keep-count", "999"],
    ["signal", "reconstruct", "{archive}", "--keep-count", "-1"],
    ["signal", "image-reconstruct", "{image}", "--keep-count", "7"],
    ["signal", "compress", "{archive}", "--fractions", "0.5,3"],
    ["signal", "compress", "{archive}", "--fractions", "nan"],
    ["signal", "bounds", "{archive}", "--p", "0.5"],
    ["signal", "bounds", "{archive}", "--p", "nan"],
    ["signal", "bounds", "{empty}", "--p", "2"],
])
def test_dry_run_refuses_what_the_run_refuses(
    capsys, path3_file, golden_archive, image_archive, empty_archive, argv, dry
):
    paths = {
        "edges": path3_file,
        "archive": golden_archive,
        "image": image_archive,
        "empty": empty_archive,
    }
    code, out, err = run(capsys, [a.format(**paths) for a in argv] + dry)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize("argv", [
    ["oracle", "green", "{edges}", "--q", "-1"],
    ["oracle", "root-prob", "{edges}", "--q", "1", "--vertices", "5"],
    ["oracle", "edge-prob", "{edges}", "--q", "nan", "--edges-in-forest", "0-1"],
    ["oracle", "root-count", "{edges}", "--q", "0"],
    ["oracle", "path-prob", "{edges}", "--q", "1", "--path", "0,0"],
    ["forest", "stats", "{edges}", "--q", "1", "--seed", "1", "--samples", "0"],
    ["forest", "sample", "{edges}", "--q", "1", "--seed", "1", "--roots", "2"],
    ["forest", "walk", "{edges}", "--q", "-1", "--start", "0", "--seed", "1"],
    ["forest", "equilibrium-check", "{edges}", "--q", "inf", "--seed", "1",
     "--samples", "10"],
    ["graph", "reduce", "{edges}", "--keep", "5"],
    ["graph", "reduce", "{edges}", "--keep", "0", "--sparsify-theta", "-1",
     "--q-prime", "1"],
    ["graph", "reduce", "{edges}", "--keep", "0", "--sparsify-theta", "0.5",
     "--q-prime", "0"],
    ["tune", "{edges}", "--seed", "1", "--samples", "0"],
    ["tune", "{edges}", "--seed", "1", "--grid", "1,-2"],
    ["oracle", "hitting", "{edges}", "--targets", "5"],
    ["oracle", "mean-root-hitting", "{edges}", "--q", "-1"],
    ["oracle", "mean-root-hitting", "{edges}", "--root-count", "3"],
    ["oracle", "partition", "{edges}", "--q", "1", "--roots", "7"],
    ["oracle", "edge-prob", "{edges}", "--q", "1", "--edges-in-forest", "0-5"],
    ["forest", "roots-target", "{edges}", "--m", "3", "--seed", "1"],
    ["forest", "walk", "{edges}", "--q", "1", "--start", "5", "--seed", "1"],
    ["forest", "sample", "{edges}", "--q", "1", "--seed", "-1"],
    ["oracle", "partition", "{edges}", "--q", "nan"],
    ["oracle", "partition", "{edges}", "--q", "inf", "--roots", "0"],
    ["oracle", "partition", "{edges}", "--q", "0"],
    ["forest", "stats", "{edges}", "--q", "1", "--seed", "-1", "--samples", "3"],
    ["forest", "walk", "{edges}", "--q", "1", "--start", "0", "--seed", "-1"],
    ["forest", "roots-target", "{edges}", "--m", "1", "--seed", "-1"],
    ["forest", "equilibrium-check", "{edges}", "--q", "1", "--seed", "-1",
     "--samples", "3"],
    ["tune", "{edges}", "--seed", "-1"],
    ["forest", "equilibrium-check", "{edges}", "--q", "1", "--seed", "1",
     "--samples", "0"],
    ["forest", "equilibrium-check", "{edges}", "--q", "1", "--seed", "1",
     "--samples", "-5"],
])
def test_dry_run_checks_arguments(capsys, two_file, argv, dry):
    code, out, err = run(capsys, [a.format(edges=two_file) for a in argv] + dry)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.fixture
def cycle3_file(tmp_path):
    path = tmp_path / "cycle3.tsv"
    path.write_text("0\t1\t1.0\n1\t2\t1.0\n2\t0\t1.0\n")
    return str(path)


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize("q_prime, shown", [
    ("-1", "-1.0"), ("0", "0.0"), ("inf", "inf"), ("nan", "nan"),
])
def test_graph_reduce_checks_q_prime_whenever_given(
    capsys, cycle3_file, q_prime, shown, dry
):
    # without --sparsify-theta a bad --q-prime is refused, not ignored
    argv = ["graph", "reduce", cycle3_file, "--keep", "0,1", "--q-prime", q_prime]
    code, out, err = run(capsys, argv + dry)
    assert (code, out) == (2, "")
    assert err == f"error: q' must be positive and finite, got {shown}\n"


def test_graph_reduce_with_a_valid_q_prime_alone_writes_the_reduction(
    capsys, cycle3_file
):
    # guard: a valid --q-prime without --sparsify-theta changes nothing
    argv = ["graph", "reduce", cycle3_file, "--keep", "0,1"]
    plain = run(capsys, argv)
    assert plain[0] == 0 and plain[1]
    assert run(capsys, argv + ["--q-prime", "0.5"]) == plain
    assert run(capsys, argv + ["--q-prime", "0.5", "--dry-run"]) == (
        0, "dry-run: inputs valid\n", ""
    )


@pytest.fixture
def big_cycle_file(tmp_path):
    # one vertex more than config.MAX_VERTICES
    path = tmp_path / "cycle4097.tsv"
    lines = [f"{i}\t{(i + 1) % 4097}\t1.0" for i in range(4097)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize("cmd", [
    ["graph", "info"],
    ["graph", "skeleton"],
    ["oracle", "partition", "--q", "1"],
])
def test_oversize_network_refused(capsys, big_cycle_file, cmd, dry):
    code, out, err = run(capsys, cmd[:2] + [big_cycle_file] + cmd[2:] + dry)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "4097 vertices" in lines[0]


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
def test_oversize_image_refused_before_tuning(capsys, tmp_path, monkeypatch, dry):
    from forestnets import sampler

    def never(*args, **kwargs):
        raise AssertionError("tuning scan ran")

    monkeypatch.setattr(sampler, "estimate_tuning", never)
    img_path = tmp_path / "big.pgm"
    img_path.write_bytes(b"P5\n65 65\n255\n" + bytes(range(65)) * 65)
    code, out, err = run(
        capsys, ["signal", "image-analyze", str(img_path), "--seed", "3"] + dry
    )
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.fixture
def small_image(tmp_path):
    path = tmp_path / "small.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(range(0, 160, 10)))
    return str(path)


#: pyramid-building options that the build refuses, with or without
#: ``--dry-run``
BAD_BUILD_OPTIONS = [
    ["--seed", "-1"],
    ["--seed", "18446744073709551616"],
    ["--seed", "1", "--min-size", "1"],
    ["--seed", "1", "--tuning-samples", "0"],
    ["--seed", "1", "--sparsify-theta", "-1"],
    ["--seed", "1", "--levels", "-1"],
]


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize("cmd", ["analyze", "image-analyze"])
@pytest.mark.parametrize("options", BAD_BUILD_OPTIONS)
def test_pyramid_build_options_are_checked(
    capsys, cycle_file, signal_file, small_image, cmd, options, dry
):
    if cmd == "analyze":
        inputs = [cycle_file, signal_file, "--undirected"]
    else:
        inputs = [small_image]
    code, out, err = run(capsys, ["signal", cmd] + inputs + options + dry)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("options", [
    ["--seed", "-1"],
    ["--seed", "1", "--sparsify-theta", "-1"],
    ["--seed", "1", "--levels", "-1"],
])
def test_bad_build_options_refused_before_tuning(
    capsys, monkeypatch, cycle_file, signal_file, options
):
    # a bad seed was refused after level 0's tuning scan, and a bad theta
    # after level 0's analysis
    from forestnets import sampler

    def never(*args, **kwargs):
        raise AssertionError("tuning scan or analysis ran")

    monkeypatch.setattr(sampler, "estimate_tuning", never)
    monkeypatch.setattr(oracle, "killed_lu", never)
    code, out, err = run(
        capsys,
        ["signal", "analyze", cycle_file, signal_file, "--undirected"] + options,
    )
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_zero_levels_is_an_archive_of_the_signal(capsys, cycle_file, signal_file):
    # a negative --levels is refused; --levels 0 archives the signal as the apex
    code, out, err = run(
        capsys,
        ["signal", "analyze", cycle_file, signal_file, "--undirected", "--seed", "1",
         "--levels", "0"],
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["levels"] == [] and len(doc["apex"]) == 32


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize("meta", [
    {"rows": 3, "cols": 4, "maxval": 255},
    {"rows": "x", "cols": 4},
    {"rows": -2, "cols": -4},
    {"rows": 0, "cols": 4},
    {"rows": 2.0, "cols": 4},
    {"rows": True, "cols": 8},
    {"rows": 2, "cols": 4, "maxval": "x"},
    {"rows": 2, "cols": 4, "maxval": 0},
    {"rows": 2, "cols": 4, "maxval": 65536},
    {"cols": 8},
    5,
    [2, 4],
])
def test_bad_image_geometry_exits_3(capsys, tmp_path, meta, dry):
    # a geometry that does not fit the base network crashed the
    # reconstruction (ValueError or TypeError, exit 1)
    path = tmp_path / "image.json"
    with open(path, "w") as fh:
        fileio.write_pyramid(fh, golden_pyramid(), meta)
    code, out, err = run(capsys, ["signal", "image-reconstruct", str(path)] + dry)
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# pyramid archive versions


def v1_archive(pyr: wv.Pyramid, version: int = fileio.PYRAMID_VERSION) -> str:
    """``pyr`` as version 1 writers wrote it, every level storing its
    reduced network, relabelled ``version``.  Version 1 is no longer read;
    relabelled 2, such an archive reads every level through the stored-edge
    path, as the version 1 reader did."""
    doc = fileio.pyramid_to_dict(pyr)
    doc["version"] = version
    for entry, lvl in zip(doc["levels"], pyr.levels):
        entry["next_edges"] = [list(e) for e in lvl.next_network.edges]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_v2_archive_stores_no_exact_level(golden_archive):
    doc = json.loads(open(golden_archive).read())
    assert doc["version"] == 2
    assert [lv["next_edges"] for lv in doc["levels"]] == [None] * 3
    v1 = json.loads(v1_archive(golden_pyramid()))
    for lv, lv1 in zip(doc["levels"], v1["levels"]):
        del lv1["next_edges"]
        del lv["next_edges"]
        assert lv == lv1


def sparsified_pyramid():
    n = 32
    net = build_network(cycle_edges(n, 1.0), n)
    f = np.sin(np.arange(n) / 4.0)
    pyr = wv.build_pyramid(net, f, seed=9, max_levels=3, sparsify_theta=0.5)
    assert pyr.levels[0].sparsified
    return pyr


@pytest.fixture(scope="module")
def sparsified_archives(tmp_path_factory):
    pyr = sparsified_pyramid()
    tmp = tmp_path_factory.mktemp("sparsified")
    v1, v2 = tmp / "v1.json", tmp / "v2.json"
    v1.write_text(v1_archive(pyr))
    with open(v2, "w") as fh:
        fileio.write_pyramid(fh, pyr)
    return str(v1), str(v2)


QUERIES = [
    ["compress", "--fractions", "0,0.25,0.5,1"],
    ["bounds", "--p", "1"],
    ["bounds", "--p", "2"],
    ["bounds", "--p", "inf"],
    ["reconstruct"],
    ["reconstruct", "--keep-fraction", "0.5"],
    ["approx"],
]


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: "-".join(q))
@pytest.mark.parametrize("kind", ["plain", "sparsified"])
def test_v1_and_v2_archives_answer_alike(
    capsys, golden_archive, sparsified_archives, tmp_path, kind, query
):
    if kind == "plain":
        v1 = tmp_path / "v1.json"
        v1.write_text(v1_archive(golden_pyramid()))
        v1, v2 = str(v1), golden_archive
    else:
        v1, v2 = sparsified_archives
    outs = []
    for archive in (v1, v2):
        code, out, err = run(capsys, ["signal", query[0], archive] + query[1:])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_v2_archive_stores_sparsified_levels(sparsified_archives):
    pyr = sparsified_pyramid()
    doc = json.loads(open(sparsified_archives[1]).read())
    for entry, lvl in zip(doc["levels"], pyr.levels):
        want = [list(e) for e in lvl.next_network.edges] if lvl.sparsified else None
        assert entry["next_edges"] == want


@pytest.mark.parametrize("next_edges", ["0 1 1.0", 5, {"0": [1, 2.0]}])
def test_next_edges_neither_null_nor_list_exits_3(
    capsys, golden_archive, tmp_path, next_edges
):
    err = assert_level0_malformed(
        capsys, tmp_path, golden_archive, {"next_edges": next_edges}, ["reconstruct"]
    )
    assert err == "error: level 0: next_edges: must be null or an edge list\n"


def test_null_next_edges_in_v1_archive_exits_3(capsys, tmp_path):
    # a version 1 archive is refused by its version, before any level is read
    doc = json.loads(v1_archive(golden_pyramid(), version=1))
    bad = tmp_path / "bad.json"
    for nulled in (False, True):
        if nulled:
            doc["levels"][1]["next_edges"] = None
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["signal", "reconstruct", str(bad)])
        assert (code, out) == (3, "")
        assert err == "error: unsupported pyramid version 1\n"


def test_tampered_sparsified_level_exits_3(capsys, sparsified_archives, tmp_path):
    doc = json.loads(open(sparsified_archives[1]).read())
    edges = doc["levels"][0]["next_edges"]
    edges[0][2] *= 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["signal", "reconstruct", str(bad)])
    assert (code, out) == (3, "")
    assert err.startswith(
        "error: level 0: next_edges: conditioned measure residual"
    )


# ---------------------------------------------------------------------------
# bad vertex ids and exit rates


def test_non_integral_keep_argument_exits_2(capsys, two_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["graph", "reduce", two_file, "--keep", "0,0.5"])
    assert exc.value.code == 2


OVERFLOW_EDGES = [[0, 1, 1e308], [0, 2, 1e308], [1, 0, 1.0], [2, 0, 1.0]]


def test_overflowing_exit_rate_is_invalid(capsys, golden_archive, tmp_path):
    edges = tmp_path / "overflow.tsv"
    edges.write_text("".join(f"{s}\t{d}\t{w!r}\n" for s, d, w in OVERFLOW_EDGES))
    doc = json.loads(open(golden_archive).read())
    doc["base"] = {"n": 3, "edges": OVERFLOW_EDGES}
    archive = tmp_path / "overflow.json"
    archive.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        info = run(capsys, ["graph", "info", str(edges)])
        bounds = run(capsys, ["signal", "bounds", str(archive), "--p", "2"])
    assert info == (2, "", "error: exit rate of vertex 0 overflows\n")
    assert bounds == (3, "", "error: base: exit rate of vertex 0 overflows\n")


# ---------------------------------------------------------------------------
# the nonzero spectrum, non-finite inputs, cold start


def test_root_count_at_small_q_has_one_certain_root(capsys, tmp_path):
    # the rounded zero eigenvalue of -L printed 0:2.24e-07
    edges = [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0), (2, 1, 1.0)]
    path = tmp_path / "g3.tsv"
    path.write_text("".join(f"{s}\t{d}\t{w!r}\n" for s, d, w in edges))
    code, out, _ = run(capsys, ["oracle", "root-count", str(path), "--q", "1e-9"])
    assert code == 0
    got = {int(k): float(p) for k, p in (tok.split(":") for tok in out.split())}
    want = fe.root_count_pmf(fe.forest_law(3, edges, 1e-9))
    assert 0 not in got
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def two_vertex_file(tmp_path, rate):
    path = tmp_path / "two.tsv"
    path.write_text(f"0\t1\t{rate!r}\n1\t0\t{rate!r}\n")
    return str(path)


def test_spectral_laws_at_rate_1e200(capsys, tmp_path):
    # the eigenvalue 2e200 of -L is resolved: it no longer swamps the zero
    path = two_vertex_file(tmp_path, 1e200)
    assert run(capsys, ["oracle", "root-count", path, "--q", "1"]) == (
        0, "1:1.0 2:5e-201\n", ""
    )
    assert run(capsys, ["oracle", "mean-root-hitting", path, "--q", "1"]) == (
        0, "5e-201\n", ""
    )


@pytest.mark.parametrize("cmd", ["root-count", "mean-root-hitting"])
def test_spectrum_that_overflows_exits_4(capsys, tmp_path, cmd):
    path = two_vertex_file(tmp_path, 1e308)
    code, out, err = run(capsys, ["oracle", cmd, path, "--q", "1"])
    assert code == 4 and out == ""
    assert err == "error: the deflated -L overflows\n"


def test_graph_reduce_of_large_rates_at_unit_q_prime(capsys, tmp_path):
    # the kernel link's row sums were held to an absolute 3.6e-9 (exit 4)
    path = tmp_path / "grid.tsv"
    path.write_text("".join(f"{a}\t{b}\t{1e8 * w!r}\n" for a, b, w in grid_edges(6, 6)))
    argv = ["graph", "reduce", str(path), "--keep", "0,3,7,10,14,17,21,24,28,31,35",
            "--sparsify-theta", "0.5", "--q-prime", "1"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == "" and out


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_signal_exits_2(capsys, cycle_file, tmp_path, value, dry):
    # analyze used to write bare NaN tokens into the archive
    path = tmp_path / "bad.csv"
    path.write_text("".join(f"{i},1.0\n" for i in range(31)) + f"31,{value}\n")
    argv = ["signal", "analyze", cycle_file, str(path), "--seed", "1"] + dry
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: line 32: signal value {float(value)} is not finite\n"


@pytest.mark.parametrize("cmd", [["reconstruct"], ["bounds", "--p", "2"]])
@pytest.mark.parametrize("where", ["detail", "apex"])
def test_non_finite_archive_values_exit_3(capsys, golden_archive, tmp_path, where, cmd):
    # they reached a solve and ended in a ValueError traceback
    doc = json.loads(open(golden_archive).read())
    if where == "detail":
        doc["levels"][0]["detail"][1] = float("nan")
        want = "error: level 0: detail is not finite\n"
    else:
        doc["apex"][0] = float("inf")
        want = "error: apex is not finite\n"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(capsys, ["signal", cmd[0], str(bad)] + cmd[1:]) == (3, "", want)


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.special"])
def test_cli_import_leaves_out_scipy_stats(module):
    # scipy.stats costs about a second per process and the CLI needs none of
    # it; scipy.special is needed by the chi-square of forest stats alone
    src = os.path.dirname(os.path.dirname(forestnets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, forestnets.cli; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("p", ["1000", "1e5", "1e308", "18446744073709551616"])
def test_bounds_at_a_huge_finite_p_exits_4(capsys, golden_archive, p):
    # a constant's p-th power overflowed as an OverflowError traceback
    code, out, err = run(capsys, ["signal", "bounds", golden_archive, "--p", p])
    assert (code, out) == (4, "")
    assert err == f"error: stability bounds at p = {float(p)} overflow the float range\n"


#: archive numbers written as JSON strings or booleans, or a q_tuning that
#: is not a number, each as a change to the golden archive's document
NOT_NUMBERS = {
    "n-string": lambda d: d["base"].update(n=str(d["base"]["n"])),
    "q-prime-string": lambda d: d["levels"][0].update(q_prime="0.9"),
    "detail-string": lambda d: d["levels"][0]["detail"].__setitem__(0, "0.25"),
    "keep-string": lambda d: d["levels"][0]["keep"].__setitem__(0, "3"),
    "keep-boolean": lambda d: d["levels"][1]["keep"].__setitem__(0, True),
    "base-weight-string": lambda d: d["base"]["edges"][0].__setitem__(2, "0.5"),
    "base-id-boolean": lambda d: d["base"]["edges"][0].__setitem__(0, False),
    "apex-boolean": lambda d: d["apex"].__setitem__(0, True),
    "q-tuning-nan": lambda d: d["levels"][0].update(q_tuning=float("nan")),
    "q-tuning-string": lambda d: d["levels"][0].update(q_tuning="1.0"),
}


@pytest.mark.parametrize("cmd", [["reconstruct"], ["bounds", "--p", "2"]])
@pytest.mark.parametrize("change", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
def test_archive_number_that_is_not_a_json_number_exits_3(
    capsys, golden_archive, tmp_path, change, cmd
):
    # int() and float() took each of these for a number, and every query
    # answered
    doc = json.loads(open(golden_archive).read())
    change(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["signal", cmd[0], str(bad)] + cmd[1:])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "malformed pyramid archive" in err or "triples of numbers" in err


def test_archive_of_integer_numbers_reads(capsys, golden_archive, tmp_path):
    # guard: a JSON integer is a number wherever a float is
    doc = json.loads(open(golden_archive).read())
    doc["levels"][0]["q_prime"] = 1
    doc["levels"][0]["q_tuning"] = 2
    doc["apex"] = [int(x) for x in doc["apex"]]
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    pyr, _ = fileio.read_pyramid(open(path))
    assert pyr.levels[0].q_prime == 1.0 and pyr.levels[0].q_tuning == 2.0
    assert run(capsys, ["signal", "reconstruct", str(path)])[0] == 0


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
def test_tune_on_an_empty_grid_exits_2(capsys, two_file, dry):
    # the choice of q read min() of no records, a ValueError traceback
    argv = ["tune", two_file, "--seed", "1", "--grid", ""] + dry
    assert run(capsys, argv) == (2, "", "error: q grid must not be empty\n")


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize("argv", [
    ["forest", "sample", "{edges}", "--q", "1e-300", "--seed", "1"],
    ["forest", "stats", "{edges}", "--q", "1e-300", "--seed", "1", "--samples", "5"],
    ["forest", "walk", "{edges}", "--q", "1e-300", "--start", "0", "--seed", "1"],
    ["forest", "equilibrium-check", "{edges}", "--q", "1e-300", "--seed", "1",
     "--samples", "5"],
    ["forest", "roots-target", "{edges}", "--m", "1", "--q0", "1e-300", "--seed", "1"],
    ["tune", "{edges}", "--seed", "1", "--grid", "1e-300"],
    ["forest", "stats", "{edges}", "--q", "1", "--seed", "1",
     "--samples", "18446744073709551615"],
    ["forest", "stats", "{edges}", "--q", "1", "--seed", "1", "--roots", "0",
     "--samples", "18446744073709551615"],
])
def test_sampling_that_cannot_end_is_refused(capsys, two_file, argv, dry):
    # each of these ran for ever: refused before the first draw
    code, out, err = run(capsys, [a.format(edges=two_file) for a in argv] + dry)
    assert code == 2 and out == ""
    assert err.startswith("error: sampling needs at least ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# JSON reports, byte for byte: each command's stdout is the sorted, indented
# dump of a document written out here from that command's library call


@pytest.fixture
def weighted_file(tmp_path):
    # a 6-cycle with irregular rates both ways and two chords
    path = tmp_path / "weighted.tsv"
    rows = [(0, 1, 1.7), (1, 2, 0.3), (2, 3, 2.9), (3, 4, 0.45), (4, 5, 1.1),
            (5, 0, 0.8), (1, 0, 0.6), (2, 1, 1.9), (3, 2, 0.7), (4, 3, 2.3),
            (5, 4, 0.35), (0, 5, 1.3), (0, 3, 0.25), (4, 1, 0.55)]
    path.write_text("".join(f"{s}\t{d}\t{w!r}\n" for s, d, w in rows))
    return str(path)


def _read(path, undirected=False):
    with open(path) as fh:
        return fileio.read_network(fh, undirected)


def _green_doc(net, q, roots):
    kern = oracle.green(net, q, roots)
    return {
        "q": kern.q,
        "roots": [int(v) for v in kern.roots],
        "G": [[float(x) for x in row] for row in kern.G],
        "K": [[float(x) for x in row] for row in kern.K],
    }


def _stats_doc(net, q, samples, seed):
    stats = sampler.empirical_stats(net, q, [], samples, seed=seed)
    assert len(stats.root_count_hist) >= 10  # "10" sorts before "9"
    return {
        "n_samples": stats.n_samples,
        "mean_roots": stats.mean_roots,
        "root_freq": [float(x) for x in stats.root_freq],
        "root_count_hist": {
            str(k): int(v) for k, v in stats.root_count_hist.items()
        },
        "edge_freq": {
            f"{s}->{d}": float(f) for (s, d), f in stats.edge_freq.items()
        },
        "chi2_stat": stats.chi2_stat,
        "chi2_pvalue": stats.chi2_pvalue,
    }


def _roots_target_doc(net, m, seed):
    result = sampler.sample_with_m_roots(net, m, seed=seed)
    return {
        "q": result.q,
        "iterations": result.iterations,
        "converged": result.converged,
        "roots": [int(v) for v in result.forest.roots],
        "parent": [int(p) for p in result.forest.parent],
    }


def _equilibrium_doc(net, q, samples, seed, min_count):
    report = sampler.conditional_root_equilibrium_check(
        net, q, samples, seed=seed, min_count=min_count
    )
    assert report.entries
    return {
        "n_samples": report.n_samples,
        "min_count": report.min_count,
        "max_tv": report.max_tv,
        "entries": [
            {
                "blocks": [[int(v) for v in b] for b in e.blocks],
                "count": e.count,
                "max_tv": e.max_tv,
            }
            for e in report.entries
        ],
    }


def _tune_doc(net, samples, seed):
    records = sampler.estimate_tuning(net, None, samples, seed=seed)
    return {
        "chosen_q": sampler.chosen_tuning(records).q,
        "records": [
            {
                "q": r.q,
                "w_tilde": r.w_tilde,
                "one_over_beta_tilde": r.one_over_beta_tilde,
                "objective": r.objective,
                "mean_roots": r.mean_roots,
            }
            for r in records
        ],
    }


def _bounds_doc(archive, p):
    with open(archive) as fh:
        report = wv.stability_bounds(fileio.read_pyramid(fh)[0], p)
    return {
        "p": "inf" if report.p == float("inf") else report.p,
        "analysis_measured": report.analysis_measured,
        "analysis_bound": report.analysis_bound,
        "approx_gap_measured": report.approx_gap_measured,
        "approx_gap_bound": report.approx_gap_bound,
        "all_dominated": report.all_dominated(),
        "levels": [
            {
                "level": lb.level,
                "q_prime": lb.q_prime,
                "approx_measured": lb.approx_measured,
                "approx_bound": lb.approx_bound,
                "detail_measured": lb.detail_measured,
                "detail_bound": lb.detail_bound,
                "detail_size_measured": lb.detail_size_measured,
                "detail_size_bound": lb.detail_size_bound,
            }
            for lb in report.levels
        ],
    }


def _info_doc(net):
    return {
        "n": net.n,
        "edges": int(net.w.size),
        "w_max": net.w_max,
        "reversible": net.reversible,
        "mu": [float(x) for x in net.mu],
    }


def _skeleton_doc(net):
    return [[float(x) for x in row] for row in skeleton(net)]


def _reduce_doc(net, keep):
    reduction = cg.ReducedNetwork(net, keep)
    return {
        "kept": [int(v) for v in reduction.kept],
        "mu": [float(x) for x in reduction.network.mu],
        "edges": [list(e) for e in reduction.network.edges],
    }


def _root_count_doc(net, q):
    law = oracle.root_count_law(net, q)
    return {
        "pmf": {str(k): p for k, p in law.as_dict().items() if p > 0},
        "mean": law.mean,
        "variance": law.variance,
    }


#: each JSON command on the weighted network: its words, its arguments
#: after the file, and its document built from the network
JSON_REPORTS = {
    "graph-info": (["graph", "info"], ["--json"], _info_doc),
    "graph-skeleton": (["graph", "skeleton"], [], _skeleton_doc),
    "graph-reduce": (
        ["graph", "reduce"], ["--keep", "0,2,5", "--json"],
        lambda net: _reduce_doc(net, [0, 2, 5]),
    ),
    "oracle-green": (
        ["oracle", "green"], ["--q", "0.7"], lambda net: _green_doc(net, 0.7, []),
    ),
    "oracle-green-roots": (
        ["oracle", "green"], ["--q", "0.7", "--roots", "4,1"],
        lambda net: _green_doc(net, 0.7, [4, 1]),
    ),
    "oracle-root-count": (
        ["oracle", "root-count"], ["--q", "0.7", "--json"],
        lambda net: _root_count_doc(net, 0.7),
    ),
    "forest-roots-target": (
        ["forest", "roots-target"], ["--m", "3", "--seed", "5", "--json"],
        lambda net: _roots_target_doc(net, 3, 5),
    ),
    "forest-equilibrium-check": (
        ["forest", "equilibrium-check"],
        ["--q", "0.9", "--seed", "3", "--samples", "400", "--min-count", "15"],
        lambda net: _equilibrium_doc(net, 0.9, 400, 3, 15),
    ),
    "tune": (
        ["tune"], ["--seed", "6", "--samples", "8", "--json"],
        lambda net: _tune_doc(net, 8, 6),
    ),
}


@pytest.mark.parametrize("name", sorted(JSON_REPORTS))
def test_json_report_bytes(capsys, weighted_file, name):
    cmd, flags, doc = JSON_REPORTS[name]
    code, out, err = run(capsys, [*cmd, weighted_file, *flags])
    assert (code, err) == (0, "")
    assert out == json.dumps(doc(_read(weighted_file)), sort_keys=True, indent=2) + "\n"


def test_forest_stats_json_bytes(capsys, cycle_file):
    argv = ["forest", "stats", cycle_file, "--q", "0.8", "--seed", "2",
            "--samples", "300"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    doc = _stats_doc(_read(cycle_file), 0.8, 300, 2)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("p", ["2", "inf"])
def test_signal_bounds_json_bytes(capsys, golden_archive, p):
    code, out, err = run(capsys, ["signal", "bounds", golden_archive, "--p", p])
    assert (code, err) == (0, "")
    doc = _bounds_doc(golden_archive, float(p))
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
