"""Command line interface: outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from forestnets import cli, fileio, oracle
from forestnets.errors import NumericalError


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
    _, out2, _ = run(capsys, argv + ["--threads", "3"])
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc2.pop("threads", None)
    assert {k: v for k, v in doc1.items()} == {
        k: v for k, v in doc2.items()
    }
    assert doc1["chi2_pvalue"] > 1e-3


@pytest.mark.parametrize("threads", ["0", "-2", "x"])
def test_threads_below_one_is_usage_error(two_file, threads):
    with pytest.raises(SystemExit) as exc:
        cli.main(["forest", "stats", two_file, "--q", "3", "--seed", "1",
                  "--samples", "5", "--threads", threads])
    assert exc.value.code == 2


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


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
