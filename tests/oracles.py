"""Independent oracles shared by the test modules.

These deliberately avoid the library's reduction machinery: ideal
membership goes through the localization y = phi/f with cleared
denominators, and polynomial division is a naive dense implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from danisurf.exactnum import CycScalar, cyclotomic_coeffs, zeta
from danisurf.multipoly import MultiPoly
from danisurf.surface import SurfaceSpec


def term_exponents(p: MultiPoly) -> list[tuple[dict[str, int], CycScalar]]:
    out = []
    for exps, coeff in p.terms.items():
        out.append(({v: e for v, e in zip(p.variables, exps)}, coeff))
    return out


def term_map(p: MultiPoly, variables: tuple[str, ...] = ("x", "y", "z")) -> dict:
    """p's coefficients keyed by exponent tuples over ``variables``, read off p.terms."""
    return {tuple(exps.get(v, 0) for v in variables): c for exps, c in term_exponents(p)}


# Term-by-term arithmetic on {exponent tuple: coefficient} maps, with no
# MultiPoly operator: coefficients are Fractions, or CycScalars where a
# cyclotomic one takes part, and zero coefficients are dropped.

def map_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def map_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def map_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def map_substitute(a: dict, images: list[dict]) -> dict:
    """Image of a under the homomorphism sending the i-th variable to images[i]."""
    out: dict = {}
    for exps, c in a.items():
        term = {tuple(0 for _ in exps): c}
        for image, k in zip(images, exps):
            for _ in range(k):
                term = map_mul(term, image)
        out = map_add(out, term)
    return out


def in_relation_ideal(p: MultiPoly, f: MultiPoly, phi: MultiPoly) -> bool:
    """Membership of p in (f(x)y - phi(z)), decided without rewriting.

    Inverting f identifies the quotient with K[x, z, 1/f] via y = phi/f,
    and f(x)y - phi(z) generates the full kernel (it is irreducible since
    f and phi are nonzero univariates in different variables).  So p is in
    the ideal iff substituting y = phi/f and clearing denominators by
    f^deg_y(p) gives the zero polynomial.  Variables other than x, y and z
    are further indeterminates over K: the same holds over K[them], so
    their exponents are carried through unchanged.
    """
    if p.is_zero():
        return True
    deg_y = max(p.degree_in("y"), 0)
    acc = MultiPoly.zero()
    for exps, coeff in term_exponents(p):
        b = exps.pop("y", 0)
        acc = acc + MultiPoly(tuple(exps), {tuple(exps.values()): coeff}) * phi ** b * f ** (deg_y - b)
    return acc.is_zero()


def render_scalar(c: CycScalar) -> str:
    """c as ``str`` prints it, read off ``c.coeffs``, one Fraction per coordinate, highest power first."""
    parts = []
    for e, q in reversed([*enumerate(c.coeffs)]):
        if q:
            base = f"zeta({c.conductor})" + (f"^{e}" if e > 1 else "")
            body = str(abs(q)) if e == 0 else base if abs(q) == 1 else f"{abs(q)}*{base}"
            parts.append(((" - " if q < 0 else " + ") if parts else "-" if q < 0 else "") + body)
    return "".join(parts) or "0"


def render_with_fractions(p: MultiPoly) -> str:
    """p as ``str`` prints it, read off ``p.terms`` with Fractions: one per rational coefficient, and
    one per coordinate of a cyclotomic one (``render_scalar``)."""
    out = []
    for exps, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(p.variables, exps) if k)
        if c.conductor > 1:
            sign, body = "+", f"({render_scalar(c)})" + ("*" + mono if mono else "")
        else:
            q = Fraction(c.nums[0], c.den)
            sign, mag = "-" if q < 0 else "+", abs(q)
            body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        out.append(f" {sign} {body}" if out else body if sign == "+" else f"-{body}")
    return "".join(out) or "0"


def naive_dense_div(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of dense univariate polynomials, ascending coeffs."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        c = num[-1] / den[-1]
        k = len(num) - len(den)
        quot[k] = c
        for j, dc in enumerate(den):
            num[k + j] -= c * dc
        while num and num[-1] == 0:
            num.pop()
    return quot, num


def reduce_mod_cyclotomic(vec: list[Fraction], n: int) -> list[Fraction]:
    """Dense coefficients of vec modulo Phi_n, padded to phi(n) entries."""
    phi = [Fraction(c) for c in cyclotomic_coeffs(n)]
    _, rem = naive_dense_div(vec, phi)
    return rem + [Fraction(0)] * (len(phi) - 1 - len(rem))


@lru_cache(maxsize=None)
def _embedded_basis(L: int, d: int) -> tuple[list[Fraction], ...]:
    """zeta_L^(k*L/d) mod Phi_L for k < phi(d), the image of the power basis of Q(zeta_d)."""
    return tuple(reduce_mod_cyclotomic([Fraction(0)] * (k * (L // d)) + [Fraction(1)], L)
                 for k in range(len(cyclotomic_coeffs(d)) - 1))


def _solve_in_subfield(L: int, d: int, target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_k c_k * zeta_L^(k*L/d) = target by Gaussian elimination; None if unsolvable."""
    basis = _embedded_basis(L, d)
    ncols = len(basis)
    nrows = len(target)
    aug = [[basis[c][r] for c in range(ncols)] + [target[r]] for r in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    if any(aug[r][ncols] != 0 for r in range(row, nrows)):
        return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol


def minimized_by_elimination(L: int, coeffs: list[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    """(conductor, coefficients) of an element of Q(zeta_L) in its least subfield.

    Tries every divisor d of L in ascending order and keeps the first whose
    linear system for the embedded power basis of Q(zeta_d) is solvable.
    """
    if L == 1 or all(c == 0 for c in coeffs[1:]):
        return 1, (coeffs[0],)
    for d in range(1, L):
        if L % d == 0:
            sol = _solve_in_subfield(L, d, list(coeffs))
            if sol is not None:
                return minimized_by_elimination(d, sol)
    return L, tuple(coeffs)


def dense_at(a: CycScalar, L: int) -> list[Fraction]:
    """Coefficients in Q(zeta_L) of a, for L a multiple of its conductor N: zeta_N = zeta_L^(L/N)."""
    step = L // a.conductor
    vec = [Fraction(0)] * (len(a.coeffs) * step)
    for i, c in enumerate(a.coeffs):
        vec[i * step] = Fraction(c)
    return reduce_mod_cyclotomic(vec, L)


def dense_sum(a: CycScalar, b: CycScalar) -> tuple[int, tuple[Fraction, ...]]:
    """(conductor, coefficients) of a + b, added densely at the lcm conductor and minimised."""
    L = lcm(a.conductor, b.conductor)
    return minimized_by_elimination(L, [x + y for x, y in zip(dense_at(a, L), dense_at(b, L))])


def dense_product(a: CycScalar, b: CycScalar) -> tuple[int, tuple[Fraction, ...]]:
    """(conductor, coefficients) of a * b, by schoolbook convolution at the lcm conductor."""
    L = lcm(a.conductor, b.conductor)
    x, y = dense_at(a, L), dense_at(b, L)
    vec = [Fraction(0)] * (len(x) + len(y))
    for i, p in enumerate(x):
        for j, q in enumerate(y):
            vec[i + j] += p * q
    return minimized_by_elimination(L, reduce_mod_cyclotomic(vec, L))


class Dense:
    """An element of Q(zeta_L) as its phi(L) Fraction coordinates, added and multiplied by
    schoolbook arithmetic and naive division by Phi_L: a coefficient type for the map_*
    oracles above, with ints standing for rationals."""

    __hash__ = None

    def __init__(self, L: int, coords):
        self.L, self.coords = L, tuple(Fraction(c) for c in coords)

    def _lift(self, other) -> "Dense":
        return other if isinstance(other, Dense) else Dense(self.L, [other] + [0] * (len(self.coords) - 1))

    def __add__(self, other) -> "Dense":
        return Dense(self.L, [x + y for x, y in zip(self.coords, self._lift(other).coords)])

    __radd__ = __add__

    def __neg__(self) -> "Dense":
        return Dense(self.L, [-x for x in self.coords])

    def __mul__(self, other) -> "Dense":
        vec = [Fraction(0)] * (2 * len(self.coords))
        for i, x in enumerate(self.coords):
            if x:
                for j, y in enumerate(self._lift(other).coords):
                    vec[i + j] += x * y
        return Dense(self.L, reduce_mod_cyclotomic(vec, self.L))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return self.coords == self._lift(other).coords

    def __repr__(self) -> str:
        return f"Dense({self.L}, {self.coords})"


def dense_map(p: MultiPoly, L: int, variables: tuple[str, ...]) -> dict:
    """p's coefficients as Dense elements of Q(zeta_L), keyed by exponents over ``variables``."""
    return {e: Dense(L, dense_at(c, L)) for e, c in term_map(p, variables).items()}


def map_derivative(a: dict, i: int) -> dict:
    """The partial derivative of a term map in its i-th variable."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def brute_root_of_unity_order(a: CycScalar) -> int | None:
    """Least k >= 1 with a^k = 1, by trying every k up to 2 * conductor."""
    if a.is_zero():
        return None
    power = a
    for k in range(1, 2 * a.conductor + 1):
        if power.is_one():
            return k
        power = power * a
    return None


def reduce_with_strategy(p: MultiPoly, S: SurfaceSpec, pick) -> MultiPoly:
    """One-offender-at-a-time reduction; pick chooses which offender to rewrite.  The cofactor
    of an offender c*x^a*y^b*(the rest) is c/lc * x^(a-m)*y^(b-1)*(the rest): every exponent
    other than x's and y's, of z or of any other variable, is carried through unchanged."""
    rel = S.relation
    while True:
        offenders = []
        for exps, coeff in term_exponents(p):
            if exps.get("x", 0) >= S.m and exps.get("y", 0) >= 1:
                offenders.append((exps, coeff))
        if not offenders:
            return p
        exps, coeff = pick(offenders)
        shifted = {**exps, "x": exps["x"] - S.m, "y": exps["y"] - 1}
        cofactor = MultiPoly(tuple(shifted), {tuple(shifted.values()): coeff / S.lc})
        p = p - cofactor * rel


def pick_max(offenders):
    return max(offenders, key=lambda o: (sum(o[0].values()), sorted(o[0].items())))


def pick_min(offenders):
    return min(offenders, key=lambda o: (sum(o[0].values()), sorted(o[0].items())))


def pick_random(rnd: random.Random):
    def _pick(offenders):
        ordered = sorted(offenders, key=lambda o: sorted(o[0].items()))
        return ordered[rnd.randrange(len(ordered))]
    return _pick


_SCALAR_POOL = [
    CycScalar(1), CycScalar(-1), CycScalar(2), CycScalar(-2), CycScalar(3),
    CycScalar(Fraction(1, 2)), CycScalar(Fraction(-3, 2)), CycScalar(Fraction(2, 3)),
]
_CYC_POOL = [zeta(3), zeta(4), zeta(4) - 1, zeta(3) + 2]


def random_scalar(rnd: random.Random, cyclotomic: bool = False) -> CycScalar:
    if cyclotomic and rnd.random() < 0.3:
        return rnd.choice(_CYC_POOL)
    return rnd.choice(_SCALAR_POOL)


def random_poly(rnd: random.Random, variables: tuple[str, ...] = ("x", "y", "z"),
                max_exp: int = 2, max_terms: int = 4,
                cyclotomic: bool = False) -> MultiPoly:
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        exps = tuple(rnd.randint(0, max_exp) for _ in variables)
        terms[exps] = random_scalar(rnd, cyclotomic)
    return MultiPoly(variables, terms)


def random_univariate(rnd: random.Random, var: str, degree: int,
                      nonzero: bool = True) -> MultiPoly:
    coeffs = [Fraction(rnd.randint(-2, 2)) for _ in range(degree + 1)]
    if nonzero and all(c == 0 for c in coeffs):
        coeffs[rnd.randrange(len(coeffs))] = Fraction(rnd.choice([1, -1, 2]))
    return MultiPoly.univariate(var, coeffs)
