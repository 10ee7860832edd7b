"""Batch command-line interface.

One surface and one command per invocation.  Exit codes: 0 when the command succeeds and any checked
property holds, 1 when a verification check fails (the report is still emitted), 2 on parse or validation
errors.  ``run`` parses a subcommand's arguments with its own parser, extras getting the top-level error,
and builds each distinct surface and ``--derivation``/``--map`` table once per process and reuses it,
safely: each is immutable and a function of its text and surface, and a raising input is never kept.

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
from typing import Optional

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


class Session:
    """The parsed arguments of one invocation and the objects built from them."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.surface: Optional[SurfaceSpec] = None
        self.D: Optional[Derivation] = None
        self.M: Optional[RingMap] = None

    def emit(self, payload: dict, text: Optional[str] = None) -> None:
        """Print the payload as JSON, or else ``text``, by default the payload's one value."""
        text = str(*payload.values()) if text is None else text
        print(json.dumps(payload) if self.args.format == "json" else text)


def _argvalue(value: Optional[str]) -> Optional[str]:
    """Argument values beginning with @ are read from the named file."""
    if value is not None and value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as stream:
            return stream.read().strip()
    return value


def _build_session(args: argparse.Namespace) -> Session:
    session = Session(args)
    surface_text = _argvalue(getattr(args, "surface", None))
    if surface_text is not None:
        session.surface = _surface(surface_text)
    else:
        f_text = _argvalue(getattr(args, "f", None))
        n = getattr(args, "n", None)
        phi_text = _argvalue(getattr(args, "phi", None))
        if phi_text is not None and (f_text is not None or n is not None):
            if f_text is not None:
                f = parse_expression(f_text, ("x",))
            elif 1 <= n <= MAX_EXPONENT:  # the bound --f's degree meets in the parser
                f = MultiPoly.variable("x") ** n
            else:
                raise ValueError(f"--n outside 1..MAX_EXPONENT = {MAX_EXPONENT}")
            session.surface = SurfaceSpec.danielewski(f, parse_expression(phi_text, ("z",)))
    der_text = _argvalue(getattr(args, "derivation", None))
    if der_text is not None:
        session.D = _table(Derivation, _need_surface(session), der_text)
    map_text = _argvalue(getattr(args, "map", None))
    if map_text is not None:
        session.M = _table(RingMap, _need_surface(session), map_text)
    h_text = _argvalue(getattr(args, "h", None))
    if h_text is not None:
        if session.M is not None:
            raise ValueError("give either --map or --h, not both")
        session.M = triangular(_need_surface(session), parse_expression(h_text, ("x",)))
    return session


def _need_surface(session: Session) -> SurfaceSpec:
    if session.surface is None:
        raise ValueError("this command needs --surface (or --phi with --f/--n)")
    return session.surface


def _cmd_nf(session: Session) -> int:
    S = _need_surface(session)
    session.emit({"normal_form": str(S.element(parse_expression(_argvalue(session.args.expr), S.variables)))})
    return EXIT_OK


def _cmd_eq(session: Session) -> int:
    S = _need_surface(session)
    left = S.element(parse_expression(_argvalue(session.args.left), S.variables))
    right = S.element(parse_expression(_argvalue(session.args.right), S.variables))
    equal = left == right
    session.emit({"equal": equal}, "true" if equal else "false")
    return EXIT_OK if equal else EXIT_CHECK_FAILED


def _cmd_well_defined(session: Session) -> int:
    """dwf and mwf: the verdict on a table, which need not be well-defined."""
    S = _need_surface(session)
    images = parse_images(_argvalue(session.args.table), S)
    if session.args.command == "dwf":
        ok = check_derivation_well_defined(images, S)
    else:
        ok = check_map_well_defined(images, S)
    session.emit({"well_defined": ok}, "true" if ok else "false")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_apply(session: Session) -> int:
    S = _need_surface(session)
    target = S.element(parse_expression(_argvalue(session.args.expr), S.variables))
    op = session.D if session.D is not None else session.M
    if op is None:
        raise ValueError("apply needs --derivation or --map")
    session.emit({"result": str(op.apply(target))})
    return EXIT_OK


def _cmd_commute(session: Session) -> int:
    if session.M is None or session.D is None:
        raise ValueError("commute needs both --map and --derivation")
    result = commutes(session.M, session.D)
    payload: dict = {"commutes": result.commutes}
    if result.commutes:
        session.emit(payload, "true")
        return EXIT_OK
    difference = str(result.difference)
    payload["witness"] = {"generator": result.generator, "difference": difference}
    session.emit(payload, f"false (witness {result.generator}: {difference})")
    return EXIT_CHECK_FAILED


def _cmd_lnd(session: Session) -> int:
    if session.D is None:
        raise ValueError("lnd needs --derivation")
    report = is_locally_nilpotent(session.D, session.args.cap)
    payload = {
        "indices": {v: k for v, k in report.indices.items()},
        "cap": report.cap,
        "locally_nilpotent": report.all_nilpotent,
    }
    session.emit(payload, str(report))
    return EXIT_OK if report.all_nilpotent else EXIT_CHECK_FAILED


def _cmd_exp(session: Session) -> int:
    D = session.D
    if D is None:
        raise ValueError("exp needs --derivation")
    scale_text = _argvalue(session.args.scale)
    if scale_text is not None:
        S = _need_surface(session)
        D = D.scaled_by(S.element(parse_expression(scale_text, S.variables)))
    try:
        rho = exp_derivation(D, session.args.cap)
    except CapExceededError as exc:
        session.emit({"error": str(exc)}, f"error: {exc}")
        return EXIT_CHECK_FAILED
    session.emit({"map": str(rho)})
    return EXIT_OK


def _cmd_bound(session: Session) -> int:
    g = parse_expression(_argvalue(session.args.g), ("x",))
    bound = hyperbolic_order_bound(g, session.args.n)
    session.emit({"bound": bound})
    return EXIT_OK


def _cmd_classify(session: Session) -> int:
    phi = parse_expression(_argvalue(session.args.phi), ("z",))
    shape = classify_phi(phi)
    payload: dict = {"degree": shape.degree}
    text = [f"degree: {shape.degree}"]
    if shape.power is not None:
        c, a = shape.power
        payload["power"] = {"c": str(c), "a": str(a)}
        text.append(f"power form: c = {c}, a = {a}")
    else:
        payload["power"] = None
        text.append("power form: none")
    i, m, phi0 = shape.periodic
    payload["periodic"] = {"i": i, "m": m, "phi0": str(phi0)}
    text.append(f"periodic form: i = {i}, m = {m}, phi0 = {phi0}")
    session.emit(payload, "\n".join(text))
    return EXIT_OK


def _cmd_verify(session: Session) -> int:
    args = session.args
    S = _need_surface(session)
    if args.suite and (actual := surface_class(S)) != args.suite:
        raise ValueError(f"surface has class {actual!r}, not requested {args.suite!r}")
    if args.hdeg > MAX_EXPONENT:  # --h cannot give a higher degree either
        raise ValueError(f"--hdeg above MAX_EXPONENT = {MAX_EXPONENT}")
    g = parse_expression(_argvalue(args.g), ("x",)) if args.g else MultiPoly.one()
    plan = SamplingPlan(h_degrees=tuple(range(args.hdeg + 1)), seed=args.seed)
    report = verify_isotropy_theorem(S, g, plan)
    session.emit(report.to_dict(), report.render_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_plane_example(session: Session) -> int:
    args = session.args
    if args.s > MAX_EXPONENT:  # the degree of Y^s in d, bounded as a typed Y^s is
        raise ValueError(f"--s above MAX_EXPONENT = {MAX_EXPONENT}")
    report = plane_example_suite(args.s, parse_scalar(_argvalue(args.p)),
                                 SamplingPlan(seed=args.seed))
    session.emit(report.to_dict(), report.render_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="danisurf",
        description="exact computations on Danielewski surfaces and their "
                    "locally nilpotent derivations")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for run()'s direct dispatch

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

    p = sub.add_parser("nf", help="normal form of an expression")
    common(p, surface=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("eq", help="equality of two elements")
    common(p, surface=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(handler=_cmd_eq)

    # the table of dwf/mwf is the subject of the check, not a session object
    p = sub.add_parser("dwf", help="is the image table a well-defined derivation")
    common(p, surface=True)
    p.add_argument("--derivation", dest="table", metavar="DERIVATION", required=True)
    p.set_defaults(handler=_cmd_well_defined)

    p = sub.add_parser("mwf", help="is the image table a well-defined ring map")
    common(p, surface=True)
    p.add_argument("--map", dest="table", metavar="MAP", required=True)
    p.set_defaults(handler=_cmd_well_defined)

    p = sub.add_parser("apply", help="apply a derivation or map to an expression")
    common(p, surface=True, derivation=True, map_=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("commute", help="does the map commute with the derivation")
    common(p, surface=True, derivation=True, map_=True)
    p.set_defaults(handler=_cmd_commute)

    p = sub.add_parser("lnd", help="local nilpotency report")
    common(p, surface=True, derivation=True, cap=True)
    p.set_defaults(handler=_cmd_lnd)

    p = sub.add_parser("exp", help="exponential automorphism of a derivation")
    common(p, surface=True, derivation=True, cap=True)
    p.add_argument("--scale", help="kernel element w: exponentiate w*D")
    p.set_defaults(handler=_cmd_exp)

    p = sub.add_parser("bound", help="gcd order bound for hyperbolic rotations")
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("classify", help="shape classification of phi")
    p.add_argument("--phi", required=True)
    common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("verify", help="isotropy theorem suite on one surface")
    common(p, surface=True, seed=True)
    p.add_argument("--suite", choices=("xy", "xn", "fx"),
                   help="expected surface class (checked against f)")
    p.add_argument("--g", help="g(x) defining the derivation (default 1)")
    p.add_argument("--hdeg", type=int, default=4, help="max sampled degree of h")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("plane-example", help="plane isotropy sweep for d = X dX + (Y^s + pX) dY")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--p", required=True, help="nonzero scalar")
    common(p, seed=True)
    p.set_defaults(handler=_cmd_plane_example)

    return parser


# built on first use and then reused by run(): the parser, which parsing leaves unchanged,
# each surface, and each Derivation or RingMap, proved well defined once per surface and text
_parser = lru_cache(maxsize=None)(build_arg_parser)
_surface = lru_cache(maxsize=64)(parse_surface)


@lru_cache(maxsize=64)
def _table(kind: type, surface: SurfaceSpec, text: str):
    return kind(surface, parse_images(text, surface))


def run(argv: Optional[list[str]] = None) -> int:
    argv, parser = sys.argv[1:] if argv is None else argv, _parser()
    sub = parser.commands.get(argv[0]) if argv else None  # a subcommand's own parser reads the rest
    args, extras = (sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])) if sub
                    else parser.parse_known_args(argv))
    if extras:  # refused with the top-level parser's message, as its parse_args refuses them
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.handler(_build_session(args))
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
