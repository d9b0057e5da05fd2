"""Property test: a command line drawn from every command, flag, edge value
and input file exits with a documented code (0, 2, 3 or 4) and at most a
one-line error, never a traceback; and ``main``, which reads a command
line that names its command with that command's parser alone and any
other with the full parser, prints, exits and hands the command the
namespace that the full parser does.  That command's parser reads every
line it takes as the full parser does, takes every command's own lines,
and declines, writing nothing, what the full parser is to report."""

import argparse
import contextlib
import io
import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from forestnets import cli, fileio
from forestnets import wavelets as wv
from forestnets.network import build_network


def command_parsers() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """The parser of every command of the full parser, by its argv prefix:
    each group's commands, and ``tune``, a group that is one command."""
    top = cli.build_parser()
    (groups,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    out = {}
    for name, group in groups.choices.items():
        subs = [a for a in group._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            out[(name,)] = group
        for command, parser in (subs[0].choices.items() if subs else ()):
            out[(name, command)] = parser
    return out


COMMANDS = command_parsers()
#: edge values by kind: huge, not finite, small numbers, lists, junk
VALUE_KINDS = [
    [str(2**64), str(2**64 - 1), "1e308", "1e400", "-1e400"],
    ["nan", "inf", "-inf"],
    ["-1", "0", "-0", "1", "2", "0.5", "1e-300"],
    ["0,0", "0,1", "1,2", "0-1", "0-1,1-2", "1-0,2-1"],
    ["", "x"],
]
EDGE_VALUES = [v for kind in VALUE_KINDS for v in kind]
# A sampling q near 0 or a draw count near 2**64 is refused before the
# first draw (sampler.check_step_budget), so every flag draws those values
# but --max-iters: roots-target stops when it converges, so its iteration
# count bounds no work from below and passes the budget, and 2**64 of
# them would run for ever.
ENDLESS = {"1e-300", str(2**64), str(2**64 - 1)}
ENDLESS_FLAGS = {"--max-iters"}
TOKENS = sorted(
    {word for argv in COMMANDS for word in argv}
    | {opt for p in COMMANDS.values() for a in p._actions for opt in a.option_strings}
    | {"--version", "bogus"}
    | set(EDGE_VALUES)
)


def write_inputs(tmp) -> dict[str, list[str]]:
    """Input files by the positional argument they are meant for, plus
    broken ones that any positional may draw."""
    e3 = tmp / "e3.tsv"
    e3.write_text("0\t1\t2.0\n1\t0\t1.0\n1\t2\t1.0\n2\t1\t0.5\n")
    one_way = tmp / "one_way.tsv"
    one_way.write_text("0\t1\t1.0\n1\t2\t1.0\n")
    sig = tmp / "s3.csv"
    sig.write_text("vertex,value\n0,1.0\n1,-0.5\n2,2.0\n")
    image = tmp / "img.pgm"
    image.write_text("P2\n3 3\n9\n0 1 2\n3 4 5\n6 7 9\n")

    n = 6
    w = np.random.default_rng(3).uniform(0.5, 2.0, n)
    edges = [(i, (i + 1) % n, float(w[i])) for i in range(n)]
    edges += [((i + 1) % n, i, float(w[i])) for i in range(n)]
    pyr = wv.build_pyramid(
        build_network(edges, n), np.cos(np.arange(n)), forced_keep=[[0, 2, 4], [1]]
    )
    archive = tmp / "pyr.json"
    with open(archive, "w") as fh:
        fileio.write_pyramid(fh, pyr)
    grid = fileio.grid_network(3, 3)
    img_pyr = wv.build_pyramid(grid, np.arange(9.0), forced_keep=[[0, 4, 8]])
    img_archive = tmp / "img_pyr.json"
    with open(img_archive, "w") as fh:
        fileio.write_pyramid(fh, img_pyr, {"rows": 3, "cols": 3, "maxval": 9})
    not_json = tmp / "not.json"
    not_json.write_text(json.dumps({"format": "other"}))

    empty = tmp / "empty"
    empty.write_text("")
    broken = [str(empty), str(tmp), str(tmp / "missing")]
    return {
        "edges": [str(e3), str(one_way), str(sig)] + broken,
        "signal": [str(sig), str(e3)] + broken,
        "pyramid": [str(archive), str(img_archive), str(not_json)] + broken,
        "image": [str(image), str(e3)] + broken,
        "--output": [str(tmp / "out" / "result"), str(tmp), str(tmp / "missing" / "x")],
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "out").mkdir()
    return write_inputs(tmp)


def command_line(rnd: random.Random, inputs, prefix=None) -> list[str]:
    """An argv of the command ``prefix`` (any command by default): its
    positionals, mostly the input file each is meant for; a shuffled
    subset of its options (most of the required ones) with edge values of
    a random kind; and at times a stray token or ``--help``.  Now and then,
    when no command is given, any tokens at all."""
    if prefix is None:
        if rnd.random() < 0.1:
            return rnd.choices(TOKENS, k=rnd.randint(0, 5))
        prefix = rnd.choice(sorted(COMMANDS))
    parser = COMMANDS[prefix]
    argv = list(prefix)
    for action in parser._actions:
        if not action.option_strings and rnd.random() < 0.95:
            files = inputs[action.dest]
            argv.append(files[0] if rnd.random() < 0.75 else rnd.choice(files))
    options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    rnd.shuffle(options)
    for action in options:
        if rnd.random() >= (0.9 if action.required else 0.3):
            continue
        flag = action.option_strings[0]
        argv.append(flag)
        if action.nargs == 0:
            continue
        if flag == "--output":
            argv.append(rnd.choice(inputs["--output"]))
            continue
        values = rnd.choice(VALUE_KINDS)
        if flag in ENDLESS_FLAGS:
            values = [v for v in values if v not in ENDLESS] or ["1"]
        argv.append(rnd.choice(values))
    if rnd.random() < 0.1:
        argv.insert(rnd.randint(0, len(argv)), rnd.choice(TOKENS + ["--help"]))
    return argv


def draw_argv(data, inputs, prefix=None) -> list[str]:
    # uniform draws: hypothesis's own favour simple choices, and drew the
    # same few command lines over and over
    rnd = data.draw(st.randoms(use_true_random=True))
    argv = command_line(rnd, inputs, prefix)
    note(f"argv = {argv!r}")
    return argv


def run(call):
    """``call()``'s result or exit code, stdout bytes and stderr text, with
    the warnings it raised."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = call()
            except SystemExit as exc:
                result = exc.code
        out.flush()
    return result, out.buffer.getvalue(), err.getvalue(), caught


def parse(parser: argparse.ArgumentParser, argv: list[str]):
    def namespace():  # as text, where a NaN equals itself
        return repr(vars(parser.parse_args(argv)))

    result, out, err, _ = run(namespace)
    return result, out, err


@pytest.mark.parametrize("prefix", sorted(COMMANDS), ids=" ".join)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_command_line_exits_cleanly(inputs, prefix, data):
    argv = draw_argv(data, inputs, prefix)
    code, _, err, caught = run(lambda: cli.main(argv))
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]
    if code in (3, 4):
        assert err.startswith("error: ") and err.count("\n") == 1, err
    elif code == 2:
        # a usage error ends in argparse's one error line
        last = err.splitlines()[-1]
        assert last.startswith(("error: ", "forestnets")), err
        assert err.count("\n") == 1 or err.startswith("usage: "), err
    else:
        assert err == "", err


def named(argv: list[str]):
    """``cli._parse_named(argv)`` as text (``None`` when it declines), with
    what it wrote to stdout and stderr."""
    result, out, err, _ = run(lambda: cli._parse_named(argv))
    return (None if result is None else repr(vars(result))), out, err


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_command_parser_reads_every_command_line_as_the_full_parser(inputs, data):
    # the parser that main builds for the command argv names reads every
    # command line it takes as the full parser does, and writes nothing
    argv = draw_argv(data, inputs)
    got, out, err = named(argv)
    assert (out, err) == (b"", "")
    if got is not None:
        assert parse(cli.build_parser(), argv) == (got, b"", "")


@pytest.mark.parametrize("prefix", sorted(COMMANDS), ids=" ".join)
def test_every_command_is_read_by_its_own_parser(prefix):
    # no command falls back to the full parser on a line it accepts
    argv = valid_line(prefix)
    got, out, err = named(argv)
    assert got is not None and (out, err) == (b"", "")
    assert parse(cli.build_parser(), argv) == (got, b"", "")


@pytest.mark.parametrize("prefix", sorted(COMMANDS), ids=" ".join)
@pytest.mark.parametrize("tail", ["--help", "--bogus", "extra"])
def test_a_command_parser_declines_silently_what_the_full_parser_reports(prefix, tail):
    # help, an unknown option and a word left over are the full parser's
    # to print: the command's own parser declines and writes nothing
    argv = [*valid_line(prefix), tail]
    assert named(argv) == (None, b"", "")
    code, out, err = parse(cli.build_parser(), argv)
    assert code in (0, 2) and (out or err)


@pytest.mark.parametrize("prefix", sorted(COMMANDS), ids=" ".join)
@pytest.mark.parametrize("tail", [["--help"], [], ["--bogus"]])
def test_command_help_and_errors_are_those_of_the_full_parser(prefix, tail):
    argv = [*prefix, *tail]
    full = parse(cli.build_parser(), argv)
    assert full[0] in (0, 2) and (full[1] or full[2])
    assert run(lambda: cli.main(argv))[:3] == full


@pytest.mark.parametrize("prefix", [p for p in sorted(COMMANDS) if len(p) == 2], ids=" ".join)
def test_an_option_before_the_command_reads_as_in_the_full_parser(prefix):
    # argv[1] names no command here, yet the group still runs one: main
    # must fill in the whole group
    argv = [prefix[0], "--dry-run", prefix[1], "x"]
    full = parse(cli.build_parser(), argv)
    assert run(lambda: cli.main(argv))[:3] == full


@pytest.mark.parametrize("argv", [["--help"], ["--version"], []] + [
    [name, "--help"] for name in ("graph", "oracle", "forest", "tune", "signal")
])
def test_help_is_that_of_the_full_parser(argv):
    # guard: main builds the group argv[0] names, and every group is listed
    full = parse(cli.build_parser(), argv)
    assert full[0] in (0, 2) and (full[1] or full[2])
    assert run(lambda: cli.main(argv))[:3] == full


# ---------------------------------------------------------------------------
# main against the full parser, down to the namespace each command is handed


@contextlib.contextmanager
def recorded_commands():
    """Every command's ``func`` replaced by its own recorder, which keeps
    the namespace it is handed (as text, where a NaN equals itself) and
    returns 0; yields the list of those namespaces."""
    seen = []

    def recorder():
        def record(args):
            seen.append(repr(vars(args)))
            return 0

        return record

    with pytest.MonkeyPatch.context() as mp:
        for name in [n for n in vars(cli) if n.startswith("cmd_")]:
            mp.setattr(cli, name, recorder())
        yield seen


def main_and_full(argv):
    """What ``main`` and the full parser make of ``argv``: exit code,
    stdout, stderr and the namespaces the command was handed."""
    with recorded_commands() as seen:
        code, out, err, _ = run(lambda: cli.main(argv))
        ran = (code, out, err, list(seen))
        result, out, err = parse(cli.build_parser(), argv)
    if isinstance(result, str):  # the namespace main should hand on
        return ran, (0, out, err, [result])
    return ran, (result, out, err, [])


def valid_line(prefix) -> list[str]:
    """A command line of ``prefix`` that its parser accepts: each
    positional and each required option, with a value each reads."""
    argv = list(prefix)
    for action in COMMANDS[prefix]._actions:
        if not action.option_strings:
            argv.append("x")
        elif action.required:
            flag = action.option_strings[0]
            argv += [flag, "0-1" if flag == "--edges-in-forest" else "1"]
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_main_reads_every_command_line_as_the_full_parser(inputs, data):
    ran, full = main_and_full(draw_argv(data, inputs))
    assert ran == full


STATS = ["forest", "stats", "x", "--q", "1", "--seed", "1", "--samples", "3"]


@pytest.mark.parametrize("argv", [
    *[[*prefix, tail] for prefix in sorted(COMMANDS) for tail in ("--help", "--bogus")],
    *[[*valid_line(prefix), tail] for prefix in sorted(COMMANDS)
      for tail in ("--help", "--bogus", "extra")],
    *[valid_line(prefix) for prefix in sorted(COMMANDS)],
    # abbreviated options, one of them ambiguous (--seed, --samples)
    ["forest", "stats", "x", "--q", "1", "--se", "1", "--samp", "3"],
    ["forest", "stats", "x", "--q", "1", "--s", "1", "--samples", "3"],
    ["forest", "stats", "x", "--q=1", "--seed=1", "--samp=3", "--dry"],
    # negative numbers and --
    ["forest", "stats", "x", "--q", "-1", "--seed", "-1", "--samples", "-3"],
    ["forest", "stats", "--q", "1", "--seed", "1", "--samples", "3", "--", "x"],
    ["forest", "stats", "--q", "1", "--seed", "1", "--samples", "3", "--", "--x"],
    [*STATS, "--", "y"],
    [*STATS, "--"],
    # ambiguous in the top-level parser, which reads every word first
    [*STATS, "--=x"],
    [*STATS, "--he"],
    ["tune", "x", "--seed", "1", "--grid", "1,0.5", "--json"],
    ["tune", "x", "--seed", "1", "--grid", ""],
    ["tune", "--help", "x"],
    ["tune", "x"],
    # options before the command
    ["forest", "--dry-run", "stats", "x", "--q", "1", "--seed", "1", "--samples", "3"],
    ["--dry-run", *STATS],
    ["--version", *STATS],
    ["-h", *STATS],
    ["forest", "-h", *STATS[1:]],
    ["forest"],
    ["forest", "stat", "x"],
    ["Forest", *STATS[1:]],
    [],
], ids=repr)
def test_main_reads_these_command_lines_as_the_full_parser(argv):
    ran, full = main_and_full(argv)
    assert ran == full


@pytest.mark.parametrize("argv", [
    STATS,
    ["signal", "compress", "x", "--fractions", "0.1,0.5", "--output", "y"],
    ["signal", "bounds", "x", "--p", "2"],
    ["signal", "bounds", "x", "--p", "inf"],
    ["signal", "reconstruct", "x", "--keep-fraction", "0.1", "--output", "y"],
    ["tune", "x", "--seed", "1"],
])
def test_main_builds_one_parser_for_a_command_line_that_names_its_command(
    monkeypatch, argv
):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    with recorded_commands() as seen:
        assert cli.main(argv) == 0
    words = argv[:1] if argv[0] == "tune" else argv[:2]
    assert built == [" ".join(["forestnets", *words])]
    assert len(seen) == 1
