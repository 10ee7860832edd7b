"""Batch command-line interface.

One surface and one command per invocation.  Exit codes: 0 when the command succeeds and any checked
property holds, 1 when a verification check fails (the report is still emitted), 2 on parse or validation
errors.  ``run`` parses a subcommand's arguments with its own parser, built alone, extras getting the top-level
error, reads each ``@path`` value from its file, at most ``MAX_FILE`` characters, and builds the surface, the
``--derivation`` table and the ``--map`` or ``--h`` map in one step: each distinct surface and table once
per process, reused safely, as each is immutable and a function of its text and surface, and a raising
input is never kept.  A handler returns (verdict, report, text, None meaning the report's one value);
``run`` alone prints the report or its text and maps the verdict to the exit code.

>>> run(["nf", "--surface", "f=x; phi=z^2", "--expr", "x*y"])
z^2
0
>>> run(["nf", "--surface", "f=x; phi=z^2", "--expr", "y*x"])
z^2
0
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Callable, Optional

from .diffmaps import (CapExceededError, Derivation, RingMap,
                       check_derivation_well_defined, check_map_well_defined,
                       commutes, exp_derivation, is_locally_nilpotent)
from .isotropy import (SamplingPlan, classify_phi, hyperbolic_order_bound,
                       plane_example_suite, surface_class, triangular,
                       verify_isotropy_theorem)
from .multipoly import MultiPoly
from .parsing import (MAX_EXPONENT, ParseError, parse_expression,
                      parse_images, parse_scalar, parse_surface)
from .surface import SurfaceSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2
MAX_FILE = 1 << 17  # Linux's MAX_ARG_STRLEN: an @file may hold what one inline argument can


def _build(args: argparse.Namespace) -> None:
    """Set ``args.S``, ``args.D`` and ``args.M``: the surface, the --derivation table and the --map or --h
    map, each None when its options are absent.  A subcommand's namespace holds only its own options."""
    opt = vars(args).get
    S = D = M = None
    if opt("surface") is not None:
        S = _surface(args.surface)
    elif opt("phi") is not None and (opt("f") is not None or opt("n") is not None):
        if args.f is not None:
            f = parse_expression(args.f, ("x",))
        elif 1 <= args.n <= MAX_EXPONENT:  # the bound --f's degree meets in the parser
            f = MultiPoly.variable("x") ** args.n
        else:
            raise ValueError(f"--n outside 1..MAX_EXPONENT = {MAX_EXPONENT}")
        S = SurfaceSpec.danielewski(f, parse_expression(args.phi, ("z",)))
    if opt("derivation") is not None:
        D = _table(Derivation, _need_surface(S), args.derivation)
    if opt("map") is not None:
        M = _table(RingMap, _need_surface(S), args.map)
    if opt("h") is not None:
        if M is not None:
            raise ValueError("give either --map or --h, not both")
        M = triangular(_need_surface(S), parse_expression(args.h, ("x",)))
    args.S, args.D, args.M = S, D, M


def _need_surface(S: Optional[SurfaceSpec]) -> SurfaceSpec:
    if S is None:
        raise ValueError("this command needs --surface (or --phi with --f/--n)")
    return S


def _cmd_nf(args: argparse.Namespace) -> tuple:
    S = _need_surface(args.S)
    return True, {"normal_form": str(S.element(parse_expression(args.expr, S.variables)))}, None


def _cmd_eq(args: argparse.Namespace) -> tuple:
    S = _need_surface(args.S)
    left = S.element(parse_expression(args.left, S.variables))
    equal = left == S.element(parse_expression(args.right, S.variables))
    return equal, {"equal": equal}, "true" if equal else "false"


def _cmd_well_defined(args: argparse.Namespace) -> tuple:
    """dwf and mwf: the verdict of the subcommand's check on a table, which need not be well-defined."""
    S = _need_surface(args.S)
    ok = args.check(parse_images(args.table, S), S)
    return ok, {"well_defined": ok}, "true" if ok else "false"


def _cmd_apply(args: argparse.Namespace) -> tuple:
    S = _need_surface(args.S)
    target = S.element(parse_expression(args.expr, S.variables))
    op = args.D if args.D is not None else args.M
    if op is None:
        raise ValueError("apply needs --derivation or --map")
    return True, {"result": str(op.apply(target))}, None


def _cmd_commute(args: argparse.Namespace) -> tuple:
    if args.M is None or args.D is None:
        raise ValueError("commute needs both --map and --derivation")
    result = commutes(args.M, args.D)
    if result.commutes:
        return True, {"commutes": True}, "true"
    difference = str(result.difference)
    return (False, {"commutes": False, "witness": {"generator": result.generator, "difference": difference}},
            f"false (witness {result.generator}: {difference})")


def _cmd_lnd(args: argparse.Namespace) -> tuple:
    if args.D is None:
        raise ValueError("lnd needs --derivation")
    report = is_locally_nilpotent(args.D, args.cap)
    payload = {"indices": dict(report.indices), "cap": report.cap, "locally_nilpotent": report.all_nilpotent}
    return report.all_nilpotent, payload, str(report)


def _cmd_exp(args: argparse.Namespace) -> tuple:
    D = args.D
    if D is None:
        raise ValueError("exp needs --derivation")
    if args.scale is not None:
        D = D.scaled_by(args.S.element(parse_expression(args.scale, args.S.variables)))
    try:
        rho = exp_derivation(D, args.cap)
    except CapExceededError as exc:
        return False, {"error": str(exc)}, f"error: {exc}"
    return True, {"map": str(rho)}, None


def _cmd_bound(args: argparse.Namespace) -> tuple:
    return True, {"bound": hyperbolic_order_bound(parse_expression(args.g, ("x",)), args.n)}, None


def _cmd_classify(args: argparse.Namespace) -> tuple:
    shape = classify_phi(parse_expression(args.phi, ("z",)))
    (c, a), (i, m, phi0) = shape.power or (None, None), shape.periodic
    payload = {"degree": shape.degree, "power": shape.power and {"c": str(c), "a": str(a)},
               "periodic": {"i": i, "m": m, "phi0": str(phi0)}}
    power = f"c = {c}, a = {a}" if shape.power else "none"
    return True, payload, (f"degree: {shape.degree}\npower form: {power}\n"
                           f"periodic form: i = {i}, m = {m}, phi0 = {phi0}")


def _cmd_verify(args: argparse.Namespace) -> tuple:
    S = _need_surface(args.S)
    if args.suite and (actual := surface_class(S)) != args.suite:
        raise ValueError(f"surface has class {actual!r}, not requested {args.suite!r}")
    if not 0 <= args.hdeg <= MAX_EXPONENT:  # below 0 no h is sampled; --h cannot give a higher degree either
        raise ValueError("--hdeg below 0" if args.hdeg < 0 else f"--hdeg above MAX_EXPONENT = {MAX_EXPONENT}")
    g = parse_expression(args.g, ("x",)) if args.g else MultiPoly.one()
    report = verify_isotropy_theorem(S, g, SamplingPlan(h_degrees=tuple(range(args.hdeg + 1)), seed=args.seed))
    return report.passed, report.to_dict(), report.render_text()


def _cmd_plane_example(args: argparse.Namespace) -> tuple:
    if args.s > MAX_EXPONENT:  # the degree of Y^s in d, bounded as a typed Y^s is
        raise ValueError(f"--s above MAX_EXPONENT = {MAX_EXPONENT}")
    report = plane_example_suite(args.s, parse_scalar(args.p), SamplingPlan(seed=args.seed))
    return report.passed, report.to_dict(), report.render_text()


def _define(add: Callable[[str, str], Optional[argparse.ArgumentParser]]) -> None:
    """Each subcommand's one definition, in help order: ``add(name, help)`` gives the parser to fill, or None."""
    def common(p: argparse.ArgumentParser, *, surface=False, derivation=False,
               map_=False, cap=False, seed=False) -> None:
        if surface:
            p.add_argument("--surface", help="'f=<expr>; phi=<expr>' or 'free: X,Y' (@file allowed)")
            p.add_argument("--f", help="f(x) for a relation surface")
            p.add_argument("--n", type=int, help="shorthand for f = x^n")
            p.add_argument("--phi", help="phi(z) for a relation surface")
        if derivation:
            p.add_argument("--derivation", help="'x -> <expr>; ...' image table (@file allowed)")
        if map_:
            p.add_argument("--map", help="'x -> <expr>; ...' image table (@file allowed)")
            p.add_argument("--h", help="shorthand for --map: the triangular generator with this h(x)")
        if cap:
            p.add_argument("--cap", type=int, help="iteration cap override")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--format", choices=("text", "json"), default="text")

    if p := add("nf", "normal form of an expression"):
        common(p, surface=True)
        p.add_argument("--expr", required=True)
        p.set_defaults(handler=_cmd_nf)

    if p := add("eq", "equality of two elements"):
        common(p, surface=True)
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.set_defaults(handler=_cmd_eq)

    # dwf/mwf check a table, not a built object; the check is looked up per call, so a later wrapper sees it
    if p := add("dwf", "is the image table a well-defined derivation"):
        common(p, surface=True)
        p.add_argument("--derivation", dest="table", metavar="DERIVATION", required=True)
        p.set_defaults(handler=_cmd_well_defined, check=lambda images, S: check_derivation_well_defined(images, S))

    if p := add("mwf", "is the image table a well-defined ring map"):
        common(p, surface=True)
        p.add_argument("--map", dest="table", metavar="MAP", required=True)
        p.set_defaults(handler=_cmd_well_defined, check=lambda images, S: check_map_well_defined(images, S))

    if p := add("apply", "apply a derivation or map to an expression"):
        common(p, surface=True, derivation=True, map_=True)
        p.add_argument("--expr", required=True)
        p.set_defaults(handler=_cmd_apply)

    if p := add("commute", "does the map commute with the derivation"):
        common(p, surface=True, derivation=True, map_=True)
        p.set_defaults(handler=_cmd_commute)

    if p := add("lnd", "local nilpotency report"):
        common(p, surface=True, derivation=True, cap=True)
        p.set_defaults(handler=_cmd_lnd)

    if p := add("exp", "exponential automorphism of a derivation"):
        common(p, surface=True, derivation=True, cap=True)
        p.add_argument("--scale", help="kernel element w: exponentiate w*D")
        p.set_defaults(handler=_cmd_exp)

    if p := add("bound", "gcd order bound for hyperbolic rotations"):
        p.add_argument("--g", required=True)
        p.add_argument("--n", type=int, required=True)
        common(p)
        p.set_defaults(handler=_cmd_bound)

    if p := add("classify", "shape classification of phi"):
        p.add_argument("--phi", required=True)
        common(p)
        p.set_defaults(handler=_cmd_classify)

    if p := add("verify", "isotropy theorem suite on one surface"):
        common(p, surface=True, seed=True)
        p.add_argument("--suite", choices=("xy", "xn", "fx"),
                       help="expected surface class (checked against f)")
        p.add_argument("--g", help="g(x) defining the derivation (default 1)")
        p.add_argument("--hdeg", type=int, default=4, help="max sampled degree of h")
        p.set_defaults(handler=_cmd_verify)

    if p := add("plane-example", "plane isotropy sweep for d = X dX + (Y^s + pX) dY"):
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--p", required=True, help="nonzero scalar")
        common(p, seed=True)
        p.set_defaults(handler=_cmd_plane_example)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="danisurf",
        description="exact computations on Danielewski surfaces and their "
                    "locally nilpotent derivations")
    sub = parser.add_subparsers(dest="command", required=True)
    _define(lambda name, text: sub.add_parser(name, help=text))
    return parser


# built on first use and then reused by run(): each parser, which parsing leaves unchanged, each surface,
# and each Derivation or RingMap, proved well defined once per surface and text
_parser = lru_cache(maxsize=None)(build_arg_parser)
_surface = lru_cache(maxsize=64)(parse_surface)


@lru_cache(maxsize=32)  # the 12 subcommands, and None for a name that is none of them
def _subparser(name: str) -> Optional[argparse.ArgumentParser]:
    built = {}
    _define(lambda n, _: built.setdefault(n, argparse.ArgumentParser(prog=f"danisurf {n}")) if n == name else None)
    return built.get(name)


@lru_cache(maxsize=64)
def _table(kind: type, surface: SurfaceSpec, text: str):
    return kind(surface, parse_images(text, surface))


def run(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sub = _subparser(argv[0]) if argv else None  # a subcommand's own parser reads the rest
    args, extras = (sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])) if sub
                    else _parser().parse_known_args(argv))  # no or an unknown command, or -h: the full tree
    if extras:  # refused with the top-level parser's message, as its parse_args refuses them
        _parser().error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        for name, value in vars(args).items():  # the one @file read, before anything is built
            if isinstance(value, str) and value.startswith("@"):
                with open(value[1:], "r", encoding="utf-8") as stream:
                    content = stream.read(MAX_FILE + 1)
                if len(content) > MAX_FILE:
                    raise ValueError(f"@file longer than MAX_FILE = {MAX_FILE} characters")
                setattr(args, name, content.strip())
        _build(args)
        holds, payload, text = args.handler(args)
        print(json.dumps(payload) if args.format == "json" else str(*payload.values()) if text is None else text)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if holds else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
