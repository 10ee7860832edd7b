"""Direct subcommand dispatch against the top-level parser, on the standard library alone.

``cli.run`` hands the arguments after a subcommand's name to that subcommand's own parser, built
alone.  For every subcommand, ``mismatches`` runs each argv kind below twice, once as ``run``
dispatches it and once through the full tree of ``build_arg_parser`` (``run`` with the direct lookup
disabled, which must then parse with the top-level parser), and compares (exit code, stdout, stderr).
argparse's internals differ between Python versions, so this runs without pytest:

    PYTHONPATH=src python tests/dispatch_parity.py

and prints the number of argvs compared, or each mismatch and exits 1.
"""

from __future__ import annotations

import contextlib
import io
import sys

from danisurf import cli

SURFACE = "f=x; phi=z^2"
D = "x -> 0; y -> 2*z; z -> x"

# a valid argv after each subcommand's name; where the subcommand has required options, the last
# pair is one, so that dropping it leaves one missing
VALID = {
    "nf": ["--surface", SURFACE, "--expr", "x*y"],
    "eq": ["--surface", SURFACE, "--left", "x*y", "--right", "z^2"],
    "dwf": ["--surface", SURFACE, "--derivation", D],
    "mwf": ["--surface", SURFACE, "--map", "x -> x; y -> y; z -> z"],
    "apply": ["--surface", SURFACE, "--derivation", D, "--expr", "y*z"],
    "commute": ["--surface", SURFACE, "--derivation", D, "--h", "x"],
    "lnd": ["--surface", SURFACE, "--derivation", D],
    "exp": ["--surface", SURFACE, "--derivation", D],
    "bound": ["--g", "x+1", "--n", "2"],
    "classify": ["--phi", "z^2"],
    "verify": ["--suite", "xy", "--f", "x", "--phi", "z^2", "--hdeg", "1"],
    "plane-example": ["--s", "2", "--p", "1"],
}


def argvs() -> list[list[str]]:
    """Per subcommand: valid, a required option missing, an extra argument, ``--exp`` for an option
    (an abbreviation of ``--expr`` where there is one), and ``-h``; then an unknown command,
    top-level ``-h`` and no arguments at all."""
    out = []
    for command, rest in VALID.items():
        abbreviated = [a if a != "--expr" else "--exp" for a in rest]
        out += [[command, *rest], [command, *rest[:-2]], [command, *rest, "extra"],
                [command, *(abbreviated if "--expr" in rest else [*rest, "--exp", "x"])], [command, "-h"]]
    return out + [["frobnicate", "--expr", "x"], ["-h"], []]


def _outcome(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def outcomes(argv: list[str]) -> tuple[tuple, tuple, int]:
    """(code, stdout, stderr) of argv through run's direct dispatch, then through the top-level parser,
    and how many times the second run parsed with the top-level parser."""
    direct = _outcome(argv)
    parser, parses = cli._parser(), []
    subparser, cli._subparser = cli._subparser, lambda name: None
    parser.parse_known_args = lambda *a: parses.append(a) or type(parser).parse_known_args(parser, *a)
    try:
        return direct, _outcome(argv), len(parses)
    finally:
        cli._subparser = subparser
        del parser.parse_known_args


def mismatches() -> list[tuple]:
    """(argv, direct, top-level, parses) for each argv whose outcomes differ or whose second run did not
    parse with the top-level parser."""
    return [(argv, *trio) for argv in argvs() if (trio := outcomes(argv))[0] != trio[1] or not trio[2]]


if __name__ == "__main__":
    bad = mismatches()
    for argv, direct, top, parses in bad:
        print(f"{argv}:\n  direct    {direct!r}\n  top-level {top!r} ({parses} top-level parses)")
    print(f"{len(argvs())} argvs compared, {len(bad)} mismatches")
    sys.exit(1 if bad else 0)
