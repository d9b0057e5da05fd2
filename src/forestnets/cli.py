"""Command line interface.

Subcommand groups: ``graph`` (inspect and reduce networks), ``oracle``
(exact forest statistics), ``forest`` (sampling and empirical checks),
``tune`` (killing-rate selection), ``signal`` (multiresolution analysis
of signals and graymap images).

Exit codes: 0 success, 2 invalid parameters or malformed command line,
3 input/output failures, 4 numerical failures.  All outputs are
deterministic byte-for-byte given identical inputs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import numpy as np

from . import __version__
from . import coarsegrain as cg
from . import fileio, oracle, sampler
from . import wavelets as wv
from .errors import (
    InvalidParams,
    MalformedInput,
    NumericalError,
    ValidationError,
)
from .network import Network, skeleton, vertex_set

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    return repr(float(x))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _id_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ids: {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers: {text!r}"
        )


def _edge_list(text: str) -> list[tuple[int, int]]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split("-")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"expected edges like '0-1,2-3': {text!r}"
            )
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad edge {tok!r}")
    if not out:
        raise argparse.ArgumentTypeError("empty edge list")
    return out


def _load_network(args) -> Network:
    with open(args.edges) as fh:
        return fileio.read_network(fh, args.undirected)


def _load_pyramid(args):
    with open(args.pyramid) as fh:
        return fileio.read_pyramid(fh)


def _out(args, binary: bool = False):
    if args.output:
        return open(args.output, "wb" if binary else "w")
    return nullcontext(sys.stdout.buffer if binary else sys.stdout)


def _dry(args) -> bool:
    if args.dry_run:
        print("dry-run: inputs valid")
        return True
    return False


# ---------------------------------------------------------------------------
# graph commands


def cmd_graph_info(args) -> int:
    net = _load_network(args)
    if _dry(args):
        return EXIT_OK
    if args.json:
        doc = {
            "n": net.n,
            "edges": int(net.w.size),
            "w_max": net.w_max,
            "reversible": net.reversible,
            "mu": [float(x) for x in net.mu],
        }
        print(_dumps(doc))
    else:
        print(f"n={net.n}")
        print(f"edges={net.w.size}")
        print(f"w_max={_fmt(net.w_max)}")
        print(f"reversible={'yes' if net.reversible else 'no'}")
        print("mu=" + ",".join(_fmt(x) for x in net.mu))
    return EXIT_OK


def cmd_graph_skeleton(args) -> int:
    net = _load_network(args)
    if _dry(args):
        return EXIT_OK
    P = skeleton(net)
    print(_dumps([[float(x) for x in row] for row in P]))
    return EXIT_OK


def cmd_graph_reduce(args) -> int:
    net = _load_network(args)
    reduction = cg.ReducedNetwork(net, args.keep)
    if args.sparsify_theta is not None:
        if args.q_prime is None:
            raise InvalidParams("--sparsify-theta requires --q-prime")
        cg.check_theta(args.sparsify_theta)
    if args.q_prime is not None:
        cg.check_q_prime(args.q_prime)
    if _dry(args):
        return EXIT_OK
    reduced = reduction.network
    if args.sparsify_theta is not None:
        reduced = cg.sparsify(reduction, args.q_prime, args.sparsify_theta)
    with _out(args) as fh:
        if args.json:
            doc = {
                "kept": [int(v) for v in reduction.kept],
                "mu": [float(x) for x in reduced.mu],
                "edges": [list(e) for e in reduced.edges],
            }
            fh.write(_dumps(doc) + "\n")
        else:
            fileio.write_edges(fh, reduced)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle commands


def cmd_oracle_partition(args) -> int:
    net = _load_network(args)
    oracle.check_q(net, args.q, args.roots)
    if _dry(args):
        return EXIT_OK
    print(_fmt(oracle.partition_fn(net, args.q, args.roots)))
    return EXIT_OK


def cmd_oracle_green(args) -> int:
    net = _load_network(args)
    oracle.check_q(net, args.q, args.roots)
    if _dry(args):
        return EXIT_OK
    kern = oracle.green(net, args.q, args.roots)
    doc = {
        "q": kern.q,
        "roots": [int(v) for v in kern.roots],
        "G": [[float(x) for x in row] for row in kern.G],
        "K": [[float(x) for x in row] for row in kern.K],
    }
    print(_dumps(doc))
    return EXIT_OK


def cmd_oracle_root_prob(args) -> int:
    net = _load_network(args)
    oracle.check_q(net, args.q, args.roots)
    vertex_set(net.n, args.vertices, "root event")
    if _dry(args):
        return EXIT_OK
    print(_fmt(oracle.root_inclusion_prob(net, args.q, args.vertices, args.roots)))
    return EXIT_OK


def cmd_oracle_edge_prob(args) -> int:
    net = _load_network(args)
    oracle.check_q(net, args.q, args.roots)
    oracle.check_edge_event(net, args.edges_in_forest, args.signed)
    if _dry(args):
        return EXIT_OK
    print(
        _fmt(
            oracle.edge_inclusion_prob(
                net, args.q, args.edges_in_forest, args.roots, signed=args.signed
            )
        )
    )
    return EXIT_OK


def cmd_oracle_root_count(args) -> int:
    net = _load_network(args)
    oracle.check_q(net, args.q, args.roots)
    if _dry(args):
        return EXIT_OK
    law = oracle.root_count_law(net, args.q, args.roots)
    if args.json:
        doc = {
            "pmf": {str(int(k)): float(p) for k, p in law.as_dict().items() if p > 0},
            "mean": law.mean,
            "variance": law.variance,
        }
        print(_dumps(doc))
    else:
        parts = [
            f"{int(k)}:{_fmt(p)}" for k, p in zip(law.counts, law.pmf) if p > 0
        ]
        print(" ".join(parts))
    return EXIT_OK


def cmd_oracle_path_prob(args) -> int:
    net = _load_network(args)
    oracle.check_path(net, args.q, args.path, args.roots)
    if _dry(args):
        return EXIT_OK
    print(_fmt(oracle.lerw_path_prob(net, args.q, args.path, args.roots)))
    return EXIT_OK


def cmd_oracle_hitting(args) -> int:
    net = _load_network(args)
    oracle.check_targets(net, args.targets)
    if _dry(args):
        return EXIT_OK
    h = oracle.hitting_times(net, args.targets)
    with _out(args) as fh:
        fileio.write_signal(fh, h)
    return EXIT_OK


def cmd_oracle_mean_root_hitting(args) -> int:
    net = _load_network(args)
    if (args.q is None) == (args.root_count is None):
        raise InvalidParams("exactly one of --q and --root-count is required")
    if args.q is not None:
        oracle.check_q(net, args.q)
    else:
        oracle.check_root_count(net, args.root_count)
    if _dry(args):
        return EXIT_OK
    if args.q is not None:
        print(_fmt(oracle.mean_root_hitting(net, args.q)))
    else:
        print(_fmt(oracle.mean_root_hitting_conditional(net, args.root_count)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# forest commands


def cmd_forest_sample(args) -> int:
    net = _load_network(args)
    sampler.check_sampling_args(net, args.q, args.roots)
    sampler.check_stream(args.seed, args.sample_index, 1)
    if _dry(args):
        return EXIT_OK
    forest = sampler.wilson_sample(
        net, args.q, args.roots, seed=args.seed, sample_index=args.sample_index
    )
    with _out(args) as fh:
        fileio.write_forest(fh, forest)
    return EXIT_OK


def cmd_forest_stats(args) -> int:
    net = _load_network(args)
    sampler.check_sampling_args(net, args.q, args.roots, args.samples)
    sampler.check_stream(args.seed, 0, args.samples)
    if _dry(args):
        return EXIT_OK
    stats = sampler.empirical_stats(
        net, args.q, args.roots, args.samples, seed=args.seed
    )
    doc = {
        "n_samples": stats.n_samples,
        "mean_roots": stats.mean_roots,
        "root_freq": [float(x) for x in stats.root_freq],
        "root_count_hist": {
            str(int(k)): int(v) for k, v in sorted(stats.root_count_hist.items())
        },
        "edge_freq": {
            f"{s}->{d}": float(f)
            for (s, d), f in sorted(stats.edge_freq.items())
            if f > 0
        },
        "chi2_stat": stats.chi2_stat,
        "chi2_pvalue": stats.chi2_pvalue,
    }
    print(_dumps(doc))
    return EXIT_OK


def cmd_forest_roots_target(args) -> int:
    net = _load_network(args)
    sampler.check_m_roots_args(net, args.m, args.roots, args.q0, args.max_iters)
    sampler.check_stream(args.seed, 0, args.max_iters)
    if _dry(args):
        return EXIT_OK
    result = sampler.sample_with_m_roots(
        net,
        args.m,
        args.roots,
        seed=args.seed,
        q0=args.q0,
        max_iters=args.max_iters,
    )
    if args.json:
        doc = {
            "q": result.q,
            "iterations": result.iterations,
            "converged": result.converged,
            "roots": [int(v) for v in result.forest.roots],
            "parent": [int(p) for p in result.forest.parent],
        }
        print(_dumps(doc))
    else:
        with _out(args) as fh:
            fh.write(f"# iterations={result.iterations}\n")
            fh.write(f"# converged={'yes' if result.converged else 'no'}\n")
            fileio.write_forest(fh, result.forest)
    return EXIT_OK


def cmd_forest_walk(args) -> int:
    net = _load_network(args)
    sampler.check_walk_args(net, args.q, args.start, args.roots)
    sampler.check_stream(args.seed, args.sample_index, 1)
    if _dry(args):
        return EXIT_OK
    path = sampler.loop_erased_walk(
        net,
        args.q,
        args.start,
        args.roots,
        seed=args.seed,
        sample_index=args.sample_index,
    )
    print(",".join(str(int(v)) for v in path))
    return EXIT_OK


def cmd_forest_equilibrium_check(args) -> int:
    net = _load_network(args)
    sampler.check_sampling_args(net, args.q, n_samples=args.samples)
    sampler.check_stream(args.seed, 0, args.samples)
    if _dry(args):
        return EXIT_OK
    report = sampler.conditional_root_equilibrium_check(
        net, args.q, args.samples, seed=args.seed, min_count=args.min_count
    )
    doc = {
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
    print(_dumps(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# tuning


def cmd_tune(args) -> int:
    net = _load_network(args)
    grid = sampler.check_tuning_args(net, args.grid, args.samples)
    sampler.check_stream(args.seed, 0, len(grid) * args.samples)
    if _dry(args):
        return EXIT_OK
    records = sampler.estimate_tuning(net, args.grid, args.samples, seed=args.seed)
    best = sampler.chosen_tuning(records)
    if args.json:
        doc = {
            "chosen_q": best.q,
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
        print(_dumps(doc))
    else:
        for r in records:
            print(
                f"q={_fmt(r.q)} objective={_fmt(r.objective)} "
                f"w_tilde={_fmt(r.w_tilde)} "
                f"one_over_beta_tilde={_fmt(r.one_over_beta_tilde)} "
                f"mean_roots={_fmt(r.mean_roots)}"
            )
        print(f"chosen q={_fmt(best.q)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# signal commands


def _build_options(args) -> dict:
    """The ``build_pyramid`` options of the command line, checked by
    ``wavelets.check_build_args``."""
    options = dict(
        max_levels=args.levels,
        min_size=args.min_size,
        sparsify_theta=args.sparsify_theta,
        n_tuning_samples=args.tuning_samples,
    )
    wv.check_build_args(args.seed, **options)
    return dict(options, seed=args.seed)


def cmd_signal_analyze(args) -> int:
    net = _load_network(args)
    with open(args.signal) as fh:
        values = fileio.read_signal(fh, net.n)
    options = _build_options(args)
    if _dry(args):
        return EXIT_OK
    pyr = wv.build_pyramid(net, values, **options)
    with _out(args) as fh:
        fileio.write_pyramid(fh, pyr)
    return EXIT_OK


def _check_keep(pyr: wv.Pyramid, args) -> None:
    if args.keep_fraction is not None:
        wv.check_fractions([args.keep_fraction])
    if args.keep_count is not None:
        wv.check_keep_count(pyr, args.keep_count)


def _compressed_values(pyr: wv.Pyramid, args) -> np.ndarray:
    if args.keep_count is not None:
        return wv.compress(pyr, args.keep_count).values
    if args.keep_fraction is not None:
        frac = args.keep_fraction
        return wv.compress(pyr, int(round(frac * pyr.detail_count()))).values
    return wv.reconstruct_pyramid(pyr)


def cmd_signal_reconstruct(args) -> int:
    pyr, _ = _load_pyramid(args)
    _check_keep(pyr, args)
    if _dry(args):
        return EXIT_OK
    values = _compressed_values(pyr, args)
    with _out(args) as fh:
        fileio.write_signal(fh, values)
    return EXIT_OK


def cmd_signal_approx(args) -> int:
    pyr, _ = _load_pyramid(args)
    if _dry(args):
        return EXIT_OK
    with _out(args) as fh:
        fileio.write_signal(fh, wv.approximation(pyr))
    return EXIT_OK


def cmd_signal_compress(args) -> int:
    pyr, _ = _load_pyramid(args)
    wv.check_fractions(args.fractions)
    if _dry(args):
        return EXIT_OK
    results = wv.compression_curve(pyr, args.fractions)
    with _out(args) as fh:
        fh.write("fraction,keep_count,total_details,rel_error\n")
        for frac, res in zip(args.fractions, results):
            fh.write(
                f"{_fmt(frac)},{res.keep_count},{res.total_details},"
                f"{_fmt(res.rel_error)}\n"
            )
    return EXIT_OK


def cmd_signal_bounds(args) -> int:
    pyr, _ = _load_pyramid(args)
    wv.check_stability_args(pyr, args.p)
    if _dry(args):
        return EXIT_OK
    report = wv.stability_bounds(pyr, args.p)
    doc = {
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
    print(_dumps(doc))
    return EXIT_OK


def cmd_signal_image_analyze(args) -> int:
    with open(args.image, "rb") as fh:
        image, maxval = fileio.read_pgm(fh)
    rows, cols = image.shape
    net = fileio.grid_network(rows, cols)
    options = _build_options(args)
    if _dry(args):
        return EXIT_OK
    pyr = wv.build_pyramid(net, image.ravel(), **options)
    meta = {"rows": rows, "cols": cols, "maxval": maxval}
    with _out(args) as fh:
        fileio.write_pyramid(fh, pyr, meta)
    return EXIT_OK


def cmd_signal_image_reconstruct(args) -> int:
    pyr, meta = _load_pyramid(args)
    rows, cols, maxval = fileio.image_geometry(meta, pyr.base.n)
    _check_keep(pyr, args)
    if _dry(args):
        return EXIT_OK
    image = np.asarray(_compressed_values(pyr, args)).reshape(rows, cols)
    with _out(args, binary=True) as fh:
        fileio.write_pgm(fh, image, maxval)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


# Arguments that several commands share.  Each adds its arguments to a
# command's parser, right after its ``-h``, in the order the command lists
# them.


def _edges_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("edges", help="edge list file (src<TAB>dst<TAB>weight)")
    p.add_argument(
        "--undirected",
        action="store_true",
        help="add the reverse of every listed edge",
    )


def _dry_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="validate inputs and exit without computing",
    )


def _out_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write to this file instead of stdout")


def _roots_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--roots",
        type=_id_list,
        default=[],
        help="comma-separated vertices forced to be roots",
    )


def _build_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--sparsify-theta", type=float, default=None)
    p.add_argument("--tuning-samples", type=int, default=16)


def _pyramid_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("pyramid", help="pyramid archive (JSON)")


def _keep_arg(p: argparse.ArgumentParser) -> None:
    keep_grp = p.add_mutually_exclusive_group()
    keep_grp.add_argument("--keep-count", type=int, default=None)
    keep_grp.add_argument("--keep-fraction", type=float, default=None)


def _command(p: argparse.ArgumentParser, func, *shared) -> None:
    """Fill in the parser ``p`` of a command that runs ``func``, with the
    ``shared`` arguments added first."""
    for add in shared:
        add(p)
    p.set_defaults(func=func)


# Each command's filler, named after the group and command it fills in.


def _graph_info(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_graph_info, _edges_arg, _dry_arg)
    p.add_argument("--json", action="store_true")


def _graph_skeleton(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_graph_skeleton, _edges_arg, _dry_arg)


def _graph_reduce(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_graph_reduce, _edges_arg, _dry_arg, _out_arg)
    p.add_argument("--keep", type=_id_list, required=True)
    p.add_argument("--sparsify-theta", type=float, default=None)
    p.add_argument("--q-prime", type=float, default=None)
    p.add_argument("--json", action="store_true")


def _oracle_at_q(p: argparse.ArgumentParser, func) -> None:
    """Fill in an oracle command that runs ``func`` on the forest law at
    ``--q``, with forced ``--roots``."""
    _command(p, func, _edges_arg, _dry_arg, _roots_arg)
    p.add_argument("--q", type=float, required=True)


def _oracle_partition(p: argparse.ArgumentParser) -> None:
    _oracle_at_q(p, cmd_oracle_partition)


def _oracle_green(p: argparse.ArgumentParser) -> None:
    _oracle_at_q(p, cmd_oracle_green)


def _oracle_root_prob(p: argparse.ArgumentParser) -> None:
    _oracle_at_q(p, cmd_oracle_root_prob)
    p.add_argument("--vertices", type=_id_list, required=True)


def _oracle_edge_prob(p: argparse.ArgumentParser) -> None:
    _oracle_at_q(p, cmd_oracle_edge_prob)
    p.add_argument(
        "--edges-in-forest",
        type=_edge_list,
        required=True,
        metavar="LIST",
        help="edges like '0-1,2-3'",
    )
    p.add_argument(
        "--signed",
        action="store_true",
        help="count an edge when either orientation is present",
    )


def _oracle_root_count(p: argparse.ArgumentParser) -> None:
    _oracle_at_q(p, cmd_oracle_root_count)
    p.add_argument("--json", action="store_true")


def _oracle_path_prob(p: argparse.ArgumentParser) -> None:
    _oracle_at_q(p, cmd_oracle_path_prob)
    p.add_argument("--path", type=_id_list, required=True)


def _oracle_hitting(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_oracle_hitting, _edges_arg, _dry_arg, _out_arg)
    p.add_argument("--targets", type=_id_list, required=True)


def _oracle_mean_root_hitting(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_oracle_mean_root_hitting, _edges_arg, _dry_arg)
    p.add_argument("--q", type=float, default=None)
    p.add_argument(
        "--root-count",
        type=int,
        default=None,
        help="condition on this many roots instead of using --q",
    )


def _forest_sample(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_forest_sample, _edges_arg, _dry_arg, _out_arg, _roots_arg)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sample-index", type=int, default=0)


def _forest_stats(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_forest_stats, _edges_arg, _dry_arg, _roots_arg)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)


def _forest_roots_target(p: argparse.ArgumentParser) -> None:
    _command(
        p, cmd_forest_roots_target, _edges_arg, _dry_arg, _out_arg, _roots_arg
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--q0", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=30)
    p.add_argument("--json", action="store_true")


def _forest_walk(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_forest_walk, _edges_arg, _dry_arg, _roots_arg)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sample-index", type=int, default=0)


def _forest_equilibrium_check(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_forest_equilibrium_check, _edges_arg, _dry_arg)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--min-count", type=int, default=100)


def _tune(tune: argparse.ArgumentParser) -> None:
    _command(tune, cmd_tune, _edges_arg, _dry_arg)
    tune.add_argument("--seed", type=int, required=True)
    tune.add_argument("--grid", type=_float_list, default=None)
    tune.add_argument("--samples", type=int, default=16)
    tune.add_argument("--json", action="store_true")


def _signal_analyze(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_signal_analyze, _edges_arg, _dry_arg, _out_arg, _build_arg)
    p.add_argument("signal", help="signal file (vertex,value)")


def _signal_reconstruct(p: argparse.ArgumentParser) -> None:
    _command(
        p, cmd_signal_reconstruct, _pyramid_arg, _dry_arg, _out_arg, _keep_arg
    )


def _signal_approx(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_signal_approx, _pyramid_arg, _dry_arg, _out_arg)


def _signal_compress(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_signal_compress, _pyramid_arg, _dry_arg, _out_arg)
    p.add_argument("--fractions", type=_float_list, required=True)


def _signal_bounds(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_signal_bounds, _pyramid_arg, _dry_arg)
    p.add_argument("--p", type=float, required=True)


def _signal_image_analyze(p: argparse.ArgumentParser) -> None:
    _command(p, cmd_signal_image_analyze, _dry_arg, _out_arg, _build_arg)
    p.add_argument("image", help="P2/P5 graymap file")


def _signal_image_reconstruct(p: argparse.ArgumentParser) -> None:
    _command(
        p,
        cmd_signal_image_reconstruct,
        _pyramid_arg,
        _dry_arg,
        _out_arg,
        _keep_arg,
    )


#: each command group's help line and its commands' fillers by name;
#: ``tune`` is a group that is one command, so it has one filler
_GROUPS = {
    "graph": ("inspect and reduce networks", {
        "info": _graph_info,
        "skeleton": _graph_skeleton,
        "reduce": _graph_reduce,
    }),
    "oracle": ("exact forest statistics", {
        "partition": _oracle_partition,
        "green": _oracle_green,
        "root-prob": _oracle_root_prob,
        "edge-prob": _oracle_edge_prob,
        "root-count": _oracle_root_count,
        "path-prob": _oracle_path_prob,
        "hitting": _oracle_hitting,
        "mean-root-hitting": _oracle_mean_root_hitting,
    }),
    "forest": ("sampling and empirical checks", {
        "sample": _forest_sample,
        "stats": _forest_stats,
        "roots-target": _forest_roots_target,
        "walk": _forest_walk,
        "equilibrium-check": _forest_equilibrium_check,
    }),
    "tune": ("killing-rate selection", _tune),
    "signal": ("multiresolution signal analysis", {
        "analyze": _signal_analyze,
        "reconstruct": _signal_reconstruct,
        "approx": _signal_approx,
        "compress": _signal_compress,
        "bounds": _signal_bounds,
        "image-analyze": _signal_image_analyze,
        "image-reconstruct": _signal_image_reconstruct,
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The full command line parser, with every command group and every
    command filled in."""
    parser = argparse.ArgumentParser(
        prog="forestnets",
        description="Random spanning forests: exact statistics, sampling, "
        "coarse-graining and multiresolution signal analysis.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, commands) in _GROUPS.items():
        group_parser = sub.add_parser(name, help=help_line)
        if callable(commands):
            commands(group_parser)
            continue
        group_sub = group_parser.add_subparsers(dest="subcommand", required=True)
        for cmd, fill in commands.items():
            fill(group_sub.add_parser(cmd))
    return parser


def _parse_named(argv: list[str]) -> argparse.Namespace | None:
    """``argv`` read by the parser of the command that its first words name
    (a group and one of its commands, or ``tune``), built alone with the
    ``prog`` it has in the full parser, into the namespace the full parser
    hands that command.  ``None`` when they name no command, or when that
    parser exits (help, usage and type errors) or leaves words over; what
    it writes on the way is dropped, so that the full parser reports
    it."""
    commands = _GROUPS[argv[0]][1] if argv and argv[0] in _GROUPS else {}
    if callable(commands):
        words, fill = argv[:1], commands
    elif len(argv) > 1 and argv[1] in commands:
        words, fill = argv[:2], commands[argv[1]]
    else:
        return None
    parser = argparse.ArgumentParser(prog=" ".join(["forestnets", *words]))
    fill(parser)
    namespace = argparse.Namespace(**dict(zip(("command", "subcommand"), words)))
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            args, rest = parser.parse_known_args(argv[len(words):], namespace)
    except SystemExit:
        return None
    return None if rest else args


def main(argv=None) -> int:
    """Run the command of ``argv`` (``sys.argv[1:]`` by default) and return
    its exit code.  A command line that names its command is read by that
    command's parser alone (:func:`_parse_named`); any other, and any that
    parser refuses or asks help of, by the full parser
    (:func:`build_parser`)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_named(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
