"""Automorphism generator families and isotropy-group verification suites.

For a surface f(x)y = phi(z) the relevant generator families are

  * hyperbolic rotations  H = (lam*x, lam^(-j)*y, z), with lam^s = 1 when
    f(x) = x^j*h(x^s) is not a monomial (j minimal exponent, s maximal),
  * the involution        I = (y, x, z), only when f = c*x,
  * triangular maps       T = (x, y + h*psi, z + h*f), psi the exact
    quotient (phi(z + h*f) - phi(z)) / (h*f),
  * rescalings            R = (x, lam^d*y, lam*z + (1-lam)*a), when
    phi = c*(z - a)^d,
  * symmetries            S = (x, mu^i*y, mu*z), when phi = z^i*phi0(z^m)
    with m maximal and mu^m = 1.

A hyperbolic rotation commutes with the canonical derivation
D = (0, g*phi_z, g*f) exactly when the order of lam divides
gcd{j + e : e in the exponent support of g} (and divides s where f forces
it); the suites sweep parameters on both sides of that criterion.  Shapes,
requests, canonical derivations, check records, reports and sampling plans
are immutable ``NamedTuple`` records.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple, Optional

from .exactnum import MAX_CONDUCTOR, CycScalar, ScalarLike, divisors, zeta
from .multipoly import _W, MultiPoly, PolyLike
from .surface import SurfaceSpec
from .diffmaps import CommutationResult, Derivation, RingMap, _trusted, commutes


class ShapeMismatchError(ValueError):
    """The requested generator family does not exist for this surface shape."""


# ---------------------------------------------------------------------------
# shape analysis


class PhiShape(NamedTuple):
    """Shape data of a univariate phi: degree, power form, periodic form.

    power:    (c, a) with phi = c*(z - a)^degree, when phi has that form.
    periodic: (i, m, phi0) with phi = z^i * phi0(z^m) and m the gcd of the
              support-exponent differences; m = 0 marks a pure monomial
              (every period works), with phi0 the leading constant.
    """

    degree: int
    power: Optional[tuple[CycScalar, CycScalar]]
    periodic: Optional[tuple[int, int, MultiPoly]]

    def reconstruct_power(self) -> Optional[MultiPoly]:
        if self.power is None:
            return None
        c, a = self.power
        z = MultiPoly.variable("z")
        return MultiPoly.constant(c) * (z - MultiPoly.constant(a)) ** self.degree

    def reconstruct_periodic(self) -> Optional[MultiPoly]:
        if self.periodic is None:
            return None
        i, m, phi0 = self.periodic
        z = MultiPoly.variable("z")
        inner = z ** m if m > 0 else MultiPoly.one()
        return z ** i * phi0.substitute({"z": inner})


def classify_phi(phi: PolyLike) -> PhiShape:
    return _shape(MultiPoly._coerce(phi))


@lru_cache(maxsize=64)  # rescaling and symmetry classify one phi for every parameter
def _shape(phi: MultiPoly) -> PhiShape:
    if not phi.depends_only_on("z") or phi.degree_in("z") < 1:
        raise ValueError("phi must be univariate in z with deg phi >= 1")
    d = phi.degree_in("z")
    c = phi.leading_coefficient("z")

    # power form c*(z - a)^d: read a off the subleading coefficient, verify
    a = -(phi.coefficient_of("z", d - 1).as_scalar() / (c * d))
    power = (c, a) if PhiShape(d, (c, a), None).reconstruct_power() == phi else None

    i, m = monomial_split(phi, "z")
    if m == 0:
        phi0 = MultiPoly.constant(phi.coefficient_of("z", i).as_scalar())
    else:
        phi0 = MultiPoly(("z",), {((e - i) // m,): phi.coefficient_of("z", e).as_scalar()
                                  for e in phi.exponent_support("z")})
    return PhiShape(d, power, (i, m, phi0))


def monomial_split(f: PolyLike, var: str = "x") -> tuple[int, int]:
    """(j, s) with f = x^j * h(x^s), j the minimal exponent and s maximal.

    s = 0 marks a monomial f (any period works and no root-of-unity
    condition is imposed on hyperbolic rotations).
    """
    j, *rest = MultiPoly._coerce(f).exponent_support(var)
    return j, math.gcd(*(e - j for e in rest))


def surface_class(S: SurfaceSpec) -> str:
    """One of "xy" (f = c*x), "xn" (f = c*x^n, n > 1), "fx" (anything else)."""
    if S.is_free:
        raise ValueError("free rings have no Danielewski class")
    j, s = monomial_split(S.f)
    if s == 0:
        return "xy" if j == 1 else "xn"
    return "fx"


def hyperbolic_order_bound(g: PolyLike, n: int) -> int:
    """gcd of {n + e : e in the exponent support of g}.

    The hyperbolic rotations commuting with the canonical derivation built
    from g on x^n*y = phi(z) are exactly those whose parameter is a root of
    unity of order dividing this bound.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = MultiPoly._coerce(g)
    if g.is_zero():
        raise ValueError("g must be nonzero")
    return math.gcd(*(n + e for e in g.exponent_support("x")))


# ---------------------------------------------------------------------------
# generator factories


def _relation(S: SurfaceSpec) -> SurfaceSpec:
    """S, unless it is free: the generator families live on relation surfaces."""
    if S.is_free:
        raise ValueError("generator families live on relation surfaces")
    return S


def hyperbolic_rotation(S: SurfaceSpec, lam: ScalarLike) -> RingMap:
    """H = (lam*x, lam^(-j)*y, z); well defined as f(lam*x)*lam^(-j) = f, given lam^s = 1."""
    lam = CycScalar(lam)
    if lam.is_zero():
        raise ValueError("hyperbolic parameter must be a unit")
    j, s = monomial_split(_relation(S).f)
    if s > 0 and lam ** s != 1:
        raise ShapeMismatchError(
            f"lambda = {lam} does not satisfy lambda^{s} = 1 required by f = {S.f}")
    x, y, z = (MultiPoly.variable(v) for v in "xyz")
    return _trusted(RingMap, S, {
        "x": MultiPoly.constant(lam) * x,
        "y": MultiPoly.constant(lam ** (-j)) * y,
        "z": z,
    })


def involution(S: SurfaceSpec) -> RingMap:
    """I = (y, x, z); well defined as f = c*x makes f(y)*x = f(x)*y."""
    if surface_class(S) != "xy":
        raise ShapeMismatchError("the involution exists only when f = c*x")
    x, y, z = (MultiPoly.variable(v) for v in "xyz")
    return _trusted(RingMap, S, {"x": y, "y": x, "z": z})


def triangular(S: SurfaceSpec, h: PolyLike) -> RingMap:
    """T = (x, y + h*psi(w), z + w), w = h*f: w*psi(w) = phi(z + w) - phi(z).  With psi(u) =
    sum_j C_j(z)*u^j, h*psi(w) is sum_j C_j(z)*(h*w^j), each h*w^j = (h*w^(j-1))*w.  T(y) is built on
    first read when that cannot raise: its operands and the relation lie over Q(zeta_L), L = lcm of the
    conductors of h, f and phi, and no product passes x-degree deg h + (deg phi - 1)*deg w.  Past either
    bound it is built here, before T(z), and raises as it always did (past L it may still not raise)."""
    h = MultiPoly._coerce(h)
    if not h.depends_only_on("x"):
        raise ValueError("h must be a polynomial in x")
    x, y, z = (MultiPoly.variable(v) for v in "xyz")
    coeffs, w = _psi(_relation(S).phi), h * S.f
    bumped = lambda: y._merged([(c * q, 1) for c, q in zip(coeffs, reduce(  # q = h*w^j
        lambda hw, _: hw + [hw[-1] * w], coeffs[1:], [h]))])
    if (math.lcm(h.conductor, S.f.conductor, S.phi.conductor) > MAX_CONDUCTOR
            or h.degree_in("x") + (len(coeffs) - 1) * w.degree_in("x") >= 1 << _W - 1):
        return _trusted(RingMap, S, {"x": x, "y": bumped(), "z": z + w})
    return _trusted(RingMap, S, {"x": x, "z": z + w}, {"y": bumped})


@lru_cache(maxsize=64)  # C_0(z), ..., C_(d-1)(z), one tuple per phi for every h
def _psi(phi: MultiPoly) -> tuple[MultiPoly, ...]:
    """The u-coefficients C_j of psi = (phi(z + u) - phi(z)) / u: those of u^(j+1) in phi(z + u)."""
    shifted = phi.substitute({"z": MultiPoly.variable("z") + MultiPoly.variable("u")})
    return tuple(shifted.coefficient_of("u", j) for j in range(1, shifted.degree_in("u") + 1))


def rescaling(S: SurfaceSpec, lam: ScalarLike) -> RingMap:
    """R = (x, lam^d*y, lam*(z - a) + a); well defined as phi(lam*(z - a) + a) = lam^d*phi."""
    lam = CycScalar(lam)
    if lam.is_zero():
        raise ValueError("rescaling parameter must be a unit")
    shape = classify_phi(_relation(S).phi)
    if shape.power is None:
        raise ShapeMismatchError(f"phi = {S.phi} is not of the form c*(z - a)^d")
    _, a = shape.power
    x, y, z = (MultiPoly.variable(v) for v in "xyz")
    # R(z) - a = lam*(z - a); relation preservation forces this shift
    return _trusted(RingMap, S, {
        "x": x,
        "y": MultiPoly.constant(lam ** shape.degree) * y,
        "z": MultiPoly.constant(lam) * z + MultiPoly.constant((1 - lam) * a),
    })


def symmetry(S: SurfaceSpec, mu: ScalarLike) -> RingMap:
    """S = (x, mu^i*y, mu*z); well defined as phi(mu*z) = mu^i*phi, given mu^m = 1."""
    mu = CycScalar(mu)
    shape = classify_phi(_relation(S).phi)
    i, m, _ = shape.periodic
    if m == 0:
        raise ShapeMismatchError(
            "phi is a monomial; its symmetries are covered by rescalings")
    if mu ** m != 1:
        raise ShapeMismatchError(f"mu = {mu} does not satisfy mu^{m} = 1")
    x, y, z = (MultiPoly.variable(v) for v in "xyz")
    return _trusted(RingMap, S, {
        "x": x,
        "y": MultiPoly.constant(mu ** i) * y,
        "z": MultiPoly.constant(mu) * z,
    })


class GeneratorRequest(NamedTuple):
    family: str  # hyperbolic | involution | triangular | rescaling | symmetry
    parameter: object = None


def make_generator(request: GeneratorRequest, S: SurfaceSpec) -> RingMap:
    if request.family == "involution":
        return involution(S)
    factory = {"hyperbolic": hyperbolic_rotation, "triangular": triangular,
               "rescaling": rescaling, "symmetry": symmetry}.get(request.family)
    if factory is None:
        raise ValueError(f"unknown generator family {request.family!r}")
    return factory(S, request.parameter)


# ---------------------------------------------------------------------------
# canonical locally nilpotent derivations


class CanonicalLND(NamedTuple):
    """The derivation D = (0, g*phi_z, g*f) realized on its surface."""

    surface: SurfaceSpec
    g: MultiPoly
    derivation: Derivation


def canonical_lnd(S: SurfaceSpec, g: PolyLike) -> CanonicalLND:
    """D = (0, g*phi', g*f); a derivation as D(f*y - phi) = f*g*phi' - phi'*g*f = 0."""
    if S.is_free:
        raise ValueError("canonical derivations live on relation surfaces")
    g = MultiPoly._coerce(g)
    if not g.depends_only_on("x"):
        raise ValueError("g must be a polynomial in x")
    D = _trusted(Derivation, S, {
        "x": MultiPoly.zero(),
        "y": g * S.phi.partial_derivative("z"),
        "z": g * S.f,
    })
    return CanonicalLND(S, g, D)


# ---------------------------------------------------------------------------
# verification reports


class CheckRecord(NamedTuple):
    family: str
    params: str
    expected: bool
    observed: bool
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.expected == self.observed


class VerifyReport(NamedTuple):
    suite: str
    surface: str
    g: str
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(rec.ok for rec in self.checks)

    def to_dict(self) -> dict:
        """The report as JSON data; a check's keys are its fields in order, with no witness when it has none."""
        checks = [{k: v for k, v in rec._asdict().items() if v is not None}  # only a witness may be None
                  for rec in sorted(self.checks, key=lambda r: (r.family, r.params))]
        return {
            "suite": self.suite,
            "surface": self.surface,
            "g": self.g,
            "checks": checks,
            "pass": self.passed,
        }

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}", f"surface: {self.surface}", f"g: {self.g}"]
        for rec in sorted(self.checks, key=lambda r: (r.family, r.params)):
            status = "ok " if rec.ok else "BAD"
            line = (f"  [{status}] {rec.family:<11} {rec.params:<40} "
                    f"expected={str(rec.expected):<5} observed={rec.observed}")
            if rec.witness:
                line += f"  witness: {rec.witness}"
            lines.append(line)
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


class SamplingPlan(NamedTuple):
    h_degrees: tuple[int, ...] = (0, 1, 2, 3, 4)
    seed: int = 0


def _random_univariate(rnd: random.Random, var: str, degree: int) -> MultiPoly:
    coeffs = [Fraction(rnd.randint(-2, 2)) for _ in range(degree)]
    coeffs.append(Fraction(rnd.choice([1, -1, 2, -2])))
    return MultiPoly.univariate(var, coeffs)


def _record(family: str, params: str, expected: bool, res: CommutationResult) -> CheckRecord:
    """The check record of a commutation result, with its witness when it fails."""
    witness = None if res.commutes else f"{res.generator}: {res.difference}"
    return CheckRecord(family, params, expected, res.commutes, witness)


def verify_isotropy_theorem(S: SurfaceSpec, g: PolyLike,
                            plan: SamplingPlan | None = None) -> VerifyReport:
    """Sweep all applicable generator families against D = (0, g*phi_z, g*f).

    Triangular parameters must always commute; the involution (f = c*x)
    must never; hyperbolic parameters commute exactly when their order
    divides the gcd bound; rescalings and symmetries only at the identity.
    """
    plan = plan or SamplingPlan()
    g = MultiPoly._coerce(g)
    if S.is_free:
        raise ValueError("theorem suites run on relation surfaces")
    if S.d < 2:
        raise ValueError("theorem suites require deg phi >= 2")
    if g.is_zero():
        raise ValueError("theorem suites require g != 0")
    rnd = random.Random(plan.seed)
    D = canonical_lnd(S, g).derivation
    cls = surface_class(S)
    checks: list[CheckRecord] = []

    # triangular family: every h must commute
    hs = [MultiPoly.zero(), MultiPoly.one(), *(_random_univariate(rnd, "x", k) for k in plan.h_degrees)]
    for h in hs:
        checks.append(_record("triangular", f"h = {h}", True, commutes(triangular(S, h), D)))

    # involution: never in the isotropy group of a nonzero derivation
    if cls == "xy":
        checks.append(_record("involution", "I = (y, x, z)", False, commutes(involution(S), D)))

    # hyperbolic rotations: commute iff order(lambda) divides the bound, the gcd
    # of s (well-definedness) and of j + e over the support of g (commutation)
    j, s = monomial_split(S.f)
    bound = math.gcd(s, *(j + e for e in g.exponent_support("x")))
    checks.append(CheckRecord("hyperbolic", f"gcd order bound = {bound}", True, True))
    orders = list(divisors(bound))
    non_divisors = [k for k in range(2, bound + 5) if bound % k][:2]
    for k in orders + non_divisors:
        checks.append(_parameter_check(S, D, "hyperbolic", "lambda", zeta(k), k, bound % k == 0))
    checks.append(_parameter_check(S, D, "hyperbolic", "lambda", CycScalar(2), None, False))

    # rescalings: only the identity parameter commutes
    shape = classify_phi(S.phi)
    if shape.power is not None:
        for lam, order in ((CycScalar(1), 1), (CycScalar(-1), 2), (CycScalar(2), None), (zeta(3), 3)):
            checks.append(_parameter_check(S, D, "rescaling", "lambda", lam, order, order == 1))

    # symmetries: only the identity parameter commutes
    i, m, _ = shape.periodic
    if m >= 1:
        for t in range(m):
            checks.append(_parameter_check(S, D, "symmetry", "mu", zeta(m, t), m // math.gcd(m, t), t == 0))
        checks.append(_parameter_check(S, D, "symmetry", "mu", zeta(m + 1), m + 1, False))

    return VerifyReport(f"isotropy-{cls}", str(S), str(g), tuple(checks))


def _parameter_check(S: SurfaceSpec, D: Derivation, family: str, pname: str, value: CycScalar,
                     order: Optional[int], expected: bool) -> CheckRecord:  # order None: not a root of unity
    params = f"{pname} = {value} (order {order or 'none'})"
    try:
        gen = make_generator(GeneratorRequest(family, value), S)
    except ShapeMismatchError as exc:
        return CheckRecord(family, params, expected, False, f"rejected: {exc}")
    return _record(family, params, expected, commutes(gen, D))


def plane_example_suite(s: int, p: ScalarLike,
                        plan: SamplingPlan | None = None) -> VerifyReport:
    """Isotropy sweep for d = X d/dX + (Y^s + p*X) d/dY on the plane K[X,Y].

    The maps (c*X, c*Y) with c^(s-1) = 1 all commute (s - 1 of them);
    other dilations, translations and shears must fail.
    """
    plan = plan or SamplingPlan()
    if s < 2:
        raise ValueError("s must be >= 2")
    p = CycScalar(p)
    if p.is_zero():
        raise ValueError("p must be nonzero")
    rnd = random.Random(plan.seed)
    F = SurfaceSpec.free_ring(("X", "Y"))
    X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")
    d = Derivation(F, {"X": X, "Y": Y ** s + MultiPoly.constant(p) * X})
    checks: list[CheckRecord] = []

    bad_order = next(k for k in range(2, s + 3) if (s - 1) % k)
    dilations = [(zeta(s - 1, t), (s - 1) // math.gcd(s - 1, t), True) for t in range(s - 1)]
    for c, order, expected in dilations + [(CycScalar(2), None, False), (zeta(bad_order), bad_order, False)]:
        rho = RingMap(F, {"X": MultiPoly.constant(c) * X, "Y": MultiPoly.constant(c) * Y})
        checks.append(_record("dilation", f"c = {c} (order {order or 'none'})", expected,
                              commutes(rho, d)))
    members = sum(rec.observed for rec in checks if rec.expected)
    checks.append(CheckRecord("member-count", f"expected group order {s - 1}",
                              True, members == s - 1))

    checks.append(_record("translation", "(X + 1, Y)", False,
                          commutes(RingMap(F, {"X": X + 1, "Y": Y}), d)))
    q = _random_univariate(rnd, "X", rnd.randint(0, 2))
    checks.append(_record("shear", f"(X, Y + {q})", False,
                          commutes(RingMap(F, {"X": X, "Y": Y + q}), d)))

    return VerifyReport("plane-example", str(F), f"s={s}; p={p}", tuple(checks))
