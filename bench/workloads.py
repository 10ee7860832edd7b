"""Seeded workload generators and the checks that need no reference output.

A workload is a list of commands.  Each command is a dict with the argv
handed to ``danisurf.cli.run`` and what the benchmark expects of it:

    {"argv": [...], "code": 0, "suite": False, "nf_m": None}

``code`` is the exit code the command must return, ``suite`` marks a
``verify`` / ``plane-example`` command whose JSON report must say
``"pass": true``, and ``nf_m`` is deg f for an ``nf`` command, whose output
must have no monomial with x-degree >= deg f together with y-degree >= 1.

Nothing here imports danisurf: the inputs are built from the seed alone,
and the checks read only the program's text output.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

WORKLOADS = ("plane-cyclo", "verify-rational", "cli-session")
SIZES = ("full", "tiny")


def _cmd(argv, code=0, suite=False, nf_m=None):
    return {"argv": [str(a) for a in argv], "code": code, "suite": suite, "nf_m": nf_m}


# -- suite workloads -----------------------------------------------------------


# The suites draw their random polynomials from random.Random(--seed).  The
# benchmark picks sampling seeds whose draws all have the same shape, so that
# every benchmark seed asks for the same amount of work; the seed still picks
# the coefficients.


def _constant_shear_seed(rnd: random.Random) -> int:
    """A plane-example seed whose shear polynomial q is a (nonzero) constant.

    The suite draws deg q from randint(0, 2) first and the shear check expands
    (Y + q)^s, so deg q and its zero coefficients change a pass up to threefold.
    """
    while True:
        seed = rnd.randrange(10 ** 6)
        if random.Random(seed).randint(0, 2) == 0:
            return seed


def _dense_h_seed(rnd: random.Random, hdeg: int) -> int:
    """A verify seed whose sampled h of degrees 0..hdeg have no zero coefficient.

    Each h takes ``degree`` draws of randint(-2, 2) and then its leading
    coefficient from choice((1, -1, 2, -2)); zeros shrink the maps it builds.
    """
    while True:
        seed = rnd.randrange(10 ** 6)
        draws = random.Random(seed)
        if all(all(draws.randint(-2, 2) for _ in range(degree))
               and draws.choice((1, -1, 2, -2)) for degree in range(hdeg + 1)):
            return seed


def plane_cyclo(rnd: random.Random, size: str) -> list[dict]:
    """plane-example at s = 21 and 31 with p = zeta(7): conductors 7*20 and 7*15.

    Two small companions on x*y = z^2 + zeta(7) with D = (0, 2z, x), a
    triangular map and a nilpotency check, give the generator and nilpotency
    layers a span here too; they cost about 1% of a pass.
    """
    sizes = (21, 31) if size == "full" else (5, 7)
    cmds = [_cmd(["plane-example", "--s", s, "--p", "zeta(7)",
                  "--seed", _constant_shear_seed(rnd), "--format", "json"], suite=True)
            for s in sizes]
    surface = ["--surface", "f=x; phi=z^2 + zeta(7)", "--derivation", "x -> 0; y -> 2*z; z -> x"]
    return cmds + [_cmd(["commute", *surface, "--h", f"zeta(7)*x + {rnd.randint(1, 3)}"]),
                   _cmd(["lnd", *surface, "--format", "json"])]


def verify_rational(rnd: random.Random, size: str) -> list[dict]:
    """Rational suites that between them build all five generator families.

    The xy surface has a periodic phi (symmetries, and the involution), the
    fx surface a power-form phi (rescalings); all four build triangular and
    hyperbolic maps.
    """
    if size == "full":
        dphi = "12*z^11 + 5*z^4"
        rows = [("xn", ["--n", 2], "z^12+z^5+1", "x", 8),
                ("xn", ["--n", 12], "z^9+z^3+1", "x^6+x^2", 6),
                ("fx", ["--f", "x^3+x"], "2*(z-1)^3", "x", 4),
                ("xy", ["--f", "x"], "z^6+2*z^2", "x+1", 4)]
    else:
        dphi = "3*z^2 + 1"
        rows = [("xn", ["--n", 2], "z^3+z+1", "x", 2),
                ("fx", ["--f", "x^3+x"], "2*(z-1)^2", "x", 1),
                ("xy", ["--f", "x"], "z^4+2*z^2", "x+1", 1)]
    cmds = [_cmd(["verify", "--suite", suite, *fn, "--phi", phi, "--g", g,
                  "--hdeg", hdeg, "--seed", _dense_h_seed(rnd, hdeg), "--format", "json"],
                 suite=True)
            for suite, fn, phi, g, hdeg in rows]
    # the first suite's derivation D = (0, x*phi', x*x^2) is locally nilpotent;
    # checking it gives the nilpotency layer a span here too
    return cmds + [_cmd(["lnd", "--n", 2, "--phi", rows[0][2], "--derivation",
                         f"x -> 0; y -> x*({dphi}); z -> x^3", "--format", "json"])]


# -- cli-session ------------------------------------------------------------------
#
# Every command slot has a fixed shape (which surface, which monomials, which
# power); the seed picks the coefficients, the roots of unity and the order.
# That keeps the work of a pass nearly the same from seed to seed, so that the
# spread between seeds is the program's, not the generator's.

_COEFFS = [Fraction(c) for c in (1, -1, 2, -2, 3, -3, 5, -4)] + \
          [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3),
           Fraction(1, 3), Fraction(-5, 2)]
# Any lcm of these orders is at most 12, so the session stays mostly rational.
_ZETAS = ("zeta(3)", "zeta(4)", "zeta(6)", "zeta(12)")


def _coeff(rnd: random.Random) -> Fraction:
    return rnd.choice(_COEFFS)


def _render(terms: list[tuple[object, str]]) -> str:
    """Render (coefficient, monomial) pairs in the grammar.

    A coefficient is a Fraction or a text scalar such as ``zeta(3)``.  The
    grammar allows a ``-`` sign only at the start of an expression, so
    negative coefficients become binary minus signs.
    """
    out = []
    for c, mono in terms:
        if isinstance(c, Fraction):
            if c == 0:
                continue
            neg, mag = c < 0, abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
        else:
            neg, body = False, f"{c}*{mono}" if mono else str(c)
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out) if out else "0"


def _mono(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _univariate(var: str, coeffs: list[Fraction]) -> str:
    return _render([(c, _mono(var, e)) for e, c in reversed(list(enumerate(coeffs)))])


def _derivative(coeffs: list[Fraction]) -> list[Fraction]:
    return [e * c for e, c in enumerate(coeffs)][1:]


def _dense(rnd: random.Random, degree: int, support=None) -> list[Fraction]:
    """Random polynomial of exact degree; ``support`` limits the nonzero exponents."""
    support = range(degree + 1) if support is None else support
    out = [Fraction(0)] * (degree + 1)
    for e in support:
        out[e] = _coeff(rnd)
    return out


class _Surface:
    """Argument texts for the surface f(x)y = phi(z) and its derivation (0, g*phi', g*f)."""

    def __init__(self, f: list[Fraction], phi: list[Fraction], g: list[Fraction]):
        self.m = len(f) - 1
        self.monomial_f = sum(1 for c in f if c) == 1
        f_text, phi_text, g_text = _univariate("x", f), _univariate("z", phi), _univariate("x", g)
        dphi = _univariate("z", _derivative(phi))
        self.spec = f"f={f_text}; phi={phi_text}"
        self.derivation = f"x -> 0; y -> ({g_text})*({dphi}); z -> ({g_text})*({f_text})"
        self.relation = f"({f_text})*y - ({phi_text})"


def _surfaces(rnd: random.Random) -> list[_Surface]:
    """Six rational relation surfaces of fixed shapes: (f, phi, g of the canonical D)."""
    shapes = [((1, [1]), (3, None), 0),      # f = a*x          (xy)
              ((2, [2]), (4, None), 1),      # f = a*x^2        (xn)
              ((2, None), (3, None), 1),     # f dense, degree 2 (fx)
              ((3, [0, 3]), (2, None), 0),   # f = a*x^3 + b    (fx)
              ((1, [1]), (5, [2, 5]), 1),    # f = a*x, phi periodic
              ((3, [3]), (2, None), 0)]      # f = a*x^3        (xn)
    out = []
    for (fd, fs), (pd, ps), gd in shapes:
        out.append(_Surface(_dense(rnd, fd, fs), _dense(rnd, pd, ps), _dense(rnd, gd)))
    return out


# Monomial templates in x, y, z for the random elements of the session.
_TEMPLATES = [
    ["x*y", "z^2", "y", ""],
    ["x^2*y", "y*z", "x"],
    ["y^2", "x*z", "z", ""],
    ["x*y*z", "y", "x^2", ""],
    ["x*y^2", "z", ""],
]


def _element(rnd: random.Random, template: list[str], with_zeta: bool) -> str:
    terms: list[tuple[object, str]] = [(_coeff(rnd), mono) for mono in template]
    if with_zeta:
        terms[-1] = (rnd.choice(_ZETAS), template[-1])
    return _render(terms)


def _cli_session_script(rnd: random.Random, n_commands: int) -> list[dict]:
    surfaces = _surfaces(rnd)
    # slot kinds in fixed proportions: about 30% nf, the rest spread evenly
    kinds = (["nf"] * 6 + ["eq"] * 2 + ["apply"] * 2 + ["commute"] * 2
             + ["lnd", "exp", "dwf", "mwf", "classify", "bound"])
    powers = (2, 3, 2, 4, 3, 5)
    cmds = []
    for slot in range(n_commands):
        cycle, index = divmod(slot, len(kinds))
        kind = kinds[index]
        S = surfaces[(slot + cycle) % len(surfaces)]
        template = _TEMPLATES[slot % len(_TEMPLATES)]
        with_zeta = slot % 7 == 0
        base = ["--surface", S.spec]
        if kind == "nf":
            k = powers[(slot + cycle) % len(powers)]
            expr = f"({_element(rnd, template, with_zeta)})^{k}"
            cmds.append(_cmd(["nf", *base, "--expr", expr, "--format", "json"], nf_m=S.m))
        elif kind == "eq":
            left = _element(rnd, template, with_zeta)
            cofactor = _element(rnd, _TEMPLATES[(slot + 1) % len(_TEMPLATES)], False)
            right = f"({left}) + ({cofactor})*({S.relation})"
            equal = cycle % 2 == 0
            if not equal:
                right += " + x"
            cmds.append(_cmd(["eq", *base, "--left", left, "--right", right],
                             code=0 if equal else 1))
        elif kind == "apply":
            expr = f"({_element(rnd, template, with_zeta)})^2"
            cmds.append(_cmd(["apply", *base, "--derivation", S.derivation, "--expr", expr]))
        elif kind == "commute":
            h = _univariate("x", _dense(rnd, 1 + slot % 2))
            cmds.append(_cmd(["commute", *base, "--h", h, "--derivation", S.derivation]))
        elif kind == "lnd":
            cmds.append(_cmd(["lnd", *base, "--derivation", S.derivation, "--format", "json"]))
        elif kind == "exp":
            w = _univariate("x", _dense(rnd, slot % 2))
            cmds.append(_cmd(["exp", *base, "--derivation", S.derivation, "--scale", w]))
        elif kind == "dwf":
            good = cycle % 2 == 0
            table = S.derivation if good else S.derivation + " + 1"
            cmds.append(_cmd(["dwf", *base, "--derivation", table], code=0 if good else 1))
        elif kind == "mwf":
            if S.monomial_f:
                # x -> lam*x, y -> lam^k*y preserves a*x^n*y = phi iff lam^(n+k) = 1
                order = rnd.choice((2, 3, 4, 6, 12))
                k = rnd.randrange(order)
                table = f"x -> zeta({order})*x; y -> zeta({order})^{k}*y; z -> z"
                code = 0 if (S.m + k) % order == 0 else 1
            else:
                good = rnd.random() < 0.5
                table = "x -> x; y -> y; z -> z" if good else "x -> x; y -> y + 1; z -> z"
                code = 0 if good else 1
            cmds.append(_cmd(["mwf", *base, "--map", table], code=code))
        elif kind == "classify":
            if slot % 2:
                phi = f"{_coeff(rnd)}*(z - {abs(_coeff(rnd))})^{3 + slot % 3}"
            else:
                phi = _univariate("z", _dense(rnd, 6, [0, 2, 4, 6]))
            cmds.append(_cmd(["classify", "--phi", phi, "--format", "json"]))
        else:
            g = _univariate("x", _dense(rnd, slot % 4))
            cmds.append(_cmd(["bound", "--g", g, "--n", 1 + slot % 5]))
    # a few small suites, so that the suite layer has a span here too
    for _ in range(max(1, n_commands // 100)):
        phi = _univariate("z", _dense(rnd, 2))
        cmds.append(_cmd(["verify", "--suite", "xn", "--n", 2, "--phi", phi, "--g", 1,
                          "--hdeg", 1, "--seed", rnd.randrange(10 ** 6), "--format", "json"],
                         suite=True))
    rnd.shuffle(cmds)
    return cmds


def cli_session(rnd: random.Random, size: str) -> list[dict]:
    """A closed loop with one client: short commands issued back to back."""
    return _cli_session_script(rnd, 200 if size == "full" else 18)


GENERATORS = {"plane-cyclo": plane_cyclo, "verify-rational": verify_rational,
              "cli-session": cli_session}


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), size)


# -- checks without a reference -----------------------------------------------------


def _split_top(text: str, seps: str) -> list[str]:
    """Split at separator characters that sit outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in seps:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


_FACTOR_RE = re.compile(r"^([a-z])(?:\^(\d+))?$")


def normal_form_violations(text: str, m: int) -> list[str]:
    """Monomials of a rendered polynomial with x-degree >= m and y-degree >= 1."""
    bad = []
    for term in _split_top(text, "+-"):
        degrees = {}
        for factor in _split_top(term.strip(), "*"):
            match = _FACTOR_RE.match(factor.strip())
            if match:
                degrees[match.group(1)] = int(match.group(2) or 1)
        if degrees.get("x", 0) >= m and degrees.get("y", 0) >= 1:
            bad.append(term.strip())
    return bad


def check_output(cmd: dict, code: int, out: str) -> list[str]:
    """Violations of the reference-free checks for one command's result."""
    problems = []
    if code != cmd["code"]:
        problems.append(f"exit code {code}, expected {cmd['code']}")
    if cmd["suite"]:
        try:
            report = json.loads(out)
        except ValueError:
            return problems + ["suite output is not JSON"]
        if report.get("pass") is not True:
            problems.append("suite report does not pass")
    if cmd["nf_m"] is not None:
        try:
            nf = json.loads(out)["normal_form"]
        except (ValueError, KeyError):
            return problems + ["nf output has no normal_form"]
        bad = normal_form_violations(nf, cmd["nf_m"])
        if bad:
            problems.append(f"not a normal form: {bad[:3]}")
    return problems
