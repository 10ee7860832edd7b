"""Derivations and ring maps: well-definedness, application, commutation,
nilpotency, kernel scaling, exponentials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from danisurf.diffmaps import (MAX_CAP, CapExceededError, CommutationResult,
                               Derivation, NilpotencyReport, RingMap,
                               apply_derivation, apply_map,
                               check_derivation_well_defined,
                               check_map_well_defined, commutes, compose_maps,
                               exp_derivation, is_locally_nilpotent,
                               kernel_contains, scale_by_kernel)
from danisurf.exactnum import CycScalar, zeta
from danisurf.isotropy import (ShapeMismatchError, canonical_lnd, hyperbolic_rotation, involution, rescaling,
                               symmetry, triangular)
from danisurf.multipoly import MultiPoly
from danisurf.surface import SurfaceSpec

from oracles import (in_relation_ideal, map_add, map_derivative, map_mul, map_substitute, random_poly,
                     random_univariate, render_with_fractions, term_map)

x, y, z = (MultiPoly.variable(v) for v in "xyz")

S_XY = SurfaceSpec.danielewski(x, z ** 2)
S_X2 = SurfaceSpec.danielewski(x ** 2, z ** 3)
S_FX = SurfaceSpec.danielewski(x ** 2 + x, z ** 2)


def _canonical(S: SurfaceSpec, g) -> Derivation:
    g = MultiPoly._coerce(g)
    return Derivation(S, {"x": 0, "y": g * S.phi.partial_derivative("z"),
                          "z": g * S.f})


def _hyperbolic(S, lam, j):
    return RingMap(S, {"x": MultiPoly.constant(lam) * x,
                       "y": MultiPoly.constant(lam ** (-j)) * y, "z": z})


class TestDerivationWellDefined:
    def test_canonical_family_on_xn(self):
        for n in (1, 2, 3):
            S = SurfaceSpec.danielewski(x ** n, z ** 3)
            g = x + 1
            images = {"x": 0, "y": g * S.phi.partial_derivative("z"), "z": g * x ** n}
            assert check_derivation_well_defined(images, S)

    def test_bad_images_leave_residue(self):
        # f' * Dx * y + f * Dy - phi' * Dz = x - 2z on xy = z^2
        assert not check_derivation_well_defined({"x": 0, "y": 1, "z": 1}, S_XY)
        residue = S_XY.element(x * 1 - 2 * z * 1)
        assert not residue.is_zero()

    def test_general_f_family(self):
        for f, phi in [(x ** 2 + x, z ** 2), (x ** 3 + 1, z ** 3)]:
            S = SurfaceSpec.danielewski(f, phi)
            images = {"x": 0, "y": phi.partial_derivative("z"), "z": f}
            assert check_derivation_well_defined(images, S)

    def test_free_kind_unrestricted(self):
        F = SurfaceSpec.free_ring(("X", "Y"))
        assert check_derivation_well_defined(
            {"X": MultiPoly.variable("X"), "Y": MultiPoly.variable("Y") ** 5}, F)

    def test_constructor_rejects_ill_defined(self):
        with pytest.raises(ValueError):
            Derivation(S_XY, {"x": 0, "y": 1, "z": 1})
        with pytest.raises(ValueError):
            Derivation(S_XY, {"x": 0, "y": 1})


class TestMapWellDefined:
    def test_identity(self):
        assert check_map_well_defined({"x": x, "y": y, "z": z}, S_XY)

    def test_hyperbolic_any_unit(self):
        for lam in (zeta(7), CycScalar(2), CycScalar(Fraction(-3, 5))):
            images = {"x": MultiPoly.constant(lam) * x,
                      "y": MultiPoly.constant(lam ** -1) * y, "z": z}
            assert check_map_well_defined(images, S_XY)

    def test_collapsing_map_rejected(self):
        assert not check_map_well_defined({"x": y, "y": y, "z": z}, S_XY)

    def test_constructor_rejects_ill_defined(self):
        with pytest.raises(ValueError):
            RingMap(S_XY, {"x": y, "y": y, "z": z})


class TestApply:
    def test_canonical_sends_z_to_x(self):
        D = _canonical(S_XY, 1)
        assert D.apply(S_XY.gen("z")) == S_XY.element(x)

    def test_scalars_die(self):
        D = _canonical(S_XY, 1)
        assert D.apply(S_XY.element(Fraction(5, 7))).is_zero()

    def test_leibniz_then_reduce(self):
        D = _canonical(S_XY, 1)
        assert D.apply(S_XY.element(y * z)) == S_XY.element(3 * z ** 2)

    def test_apply_map_identity(self):
        rho = RingMap.identity(S_XY)
        p = S_XY.element(x ** 2 * y + z)
        assert apply_map(rho, p) == p

    def test_triangular_shift(self):
        T = RingMap(S_XY, {"x": x, "y": y + 2 * z + x, "z": z + x})
        assert T.apply(S_XY.gen("z")) == S_XY.element(z + x)

    def test_compose_hyperbolics(self):
        lam, mu = zeta(3), zeta(4)
        composed = compose_maps(_hyperbolic(S_XY, lam, 1), _hyperbolic(S_XY, mu, 1))
        assert composed == _hyperbolic(S_XY, lam * mu, 1)

    def test_surface_mismatch(self):
        D = _canonical(S_XY, 1)
        with pytest.raises(ValueError):
            D.apply(S_X2.gen("z"))


class TestCommutes:
    def test_triangular_commutes_up_to_degree_four(self):
        from danisurf.isotropy import triangular

        D = _canonical(S_XY, 1)
        rnd = random.Random(2)
        for deg in range(5):
            T = triangular(S_XY, random_univariate(rnd, "x", deg))
            assert commutes(T, D)

    def test_involution_fails_with_witness_at_x(self):
        D = _canonical(S_XY, 1)
        I = RingMap(S_XY, {"x": y, "y": x, "z": z})
        res = commutes(I, D)
        assert not res
        assert res.generator == "x"
        assert res.difference == -S_XY.element(2 * z)

    @pytest.mark.parametrize("S, rho", [
        (S_XY, lambda S: RingMap(S, {"x": y, "y": x, "z": z})),  # the involution
        (S_XY, lambda S: _hyperbolic(S, CycScalar(2), 1)),
        (S_X2, lambda S: _hyperbolic(S, zeta(3), 2)),
        (SurfaceSpec.danielewski(x, z ** 2 + zeta(7)), lambda S: RingMap(S, {"x": y, "y": x, "z": z})),
    ])
    def test_failure_witness_matches_the_subtraction(self, S, rho):
        """commutes compares normal forms; its witness is the first generator whose reduced
        difference rho(D v) - D(rho v) is nonzero, as subtracting on every generator finds."""
        rho, D = rho(S), _canonical(S, 1)
        diffs = [(v, S.element(rho.apply(D.images[v]).rep - D.apply(rho.images[v]).rep)) for v in S.variables]
        v, diff = next((v, d) for v, d in diffs if not d.is_zero())
        res = commutes(rho, D)
        assert not res and res.generator == v and res.difference == diff

    def test_y_is_checked_when_rho_of_f_is_zero(self):
        """rho = (0, y, 1) agrees with D = x*D0 at x and z, but rho(f) = rho(x) = 0, so agreement at y
        does not follow from the relation: the check must run there and fail."""
        S = SurfaceSpec.danielewski(x, z ** 2 - 1)
        rho = RingMap(S, {"x": 0, "y": y, "z": 1})  # well defined: 0*y = 1 - 1
        res = commutes(rho, canonical_lnd(S, x).derivation)
        assert (res.commutes, res.generator, res.difference) == (False, "y", S.element(-2 * x * z))

    def test_y_is_checked_on_a_free_ring_named_x_y_z(self):
        """A free ring has no relation to decide y, whatever its generators are called."""
        F = SurfaceSpec.free_ring(("x", "y", "z"))
        res = commutes(RingMap(F, {"x": x, "y": 2 * y, "z": z}), Derivation(F, {"x": 0, "y": 1, "z": 0}))
        assert (res.commutes, res.generator, res.difference) == (False, "y", F.element(-1))

    def test_hyperbolic_minus_one_on_x2(self):
        D = _canonical(S_X2, 1)
        assert commutes(_hyperbolic(S_X2, CycScalar(-1), 2), D)

    def test_commuting_pair_commutes_on_random_elements(self):
        D = _canonical(S_XY, x)
        H = _hyperbolic(S_XY, CycScalar(-1), 1)  # order 2 divides gcd{1 + 1}
        assert commutes(H, D)
        rnd = random.Random(9)
        for _ in range(100):
            p = S_XY.element(random_poly(rnd, max_exp=2))
            assert H.apply(D.apply(p)) == D.apply(H.apply(p))


class TestNilpotency:
    def test_canonical_indices(self):
        report = is_locally_nilpotent(_canonical(S_XY, 1))
        assert report.indices == {"x": 1, "y": 3, "z": 2}
        assert report.all_nilpotent

    def test_index_formula_for_constant_g(self):
        for n, phi in [(1, z ** 2), (2, z ** 3), (3, z ** 4 + 1)]:
            S = SurfaceSpec.danielewski(x ** n, phi)
            report = is_locally_nilpotent(_canonical(S, 2))
            assert report.indices["y"] == phi.degree_in("z") + 1
            assert report.indices["z"] == 2

    def test_eigenvector_exceeds_cap(self):
        F = SurfaceSpec.free_ring(("X", "Y"))
        E = Derivation(F, {"X": MultiPoly.variable("X"), "Y": 0})
        report = is_locally_nilpotent(E, cap=10)
        assert report.indices["X"] is None
        assert report.indices["Y"] == 1
        assert report.inconclusive and not report.all_nilpotent
        assert "exceeded cap" in str(report)

    def test_zero_derivation(self):
        report = is_locally_nilpotent(Derivation.zero(S_XY))
        assert report.indices == {"x": 1, "y": 1, "z": 1}

    def test_cap_bound(self):
        """Every default cap of a parsed table is below MAX_CAP; a larger explicit cap raises."""
        assert MAX_CAP >= 2 + 64 * 65
        F = SurfaceSpec.free_ring(("X", "Y"))
        E = Derivation(F, {"X": MultiPoly.variable("X"), "Y": 0})
        report = is_locally_nilpotent(E, cap=MAX_CAP)
        assert report.cap == MAX_CAP and report.indices == {"X": None, "Y": 1}
        for bad in (MAX_CAP + 1, 0):
            with pytest.raises(ValueError):
                is_locally_nilpotent(E, cap=bad)
            with pytest.raises(ValueError):
                exp_derivation(E, cap=bad)
        assert exp_derivation(Derivation(F, {"X": 0, "Y": 1}), cap=MAX_CAP).images["Y"] == F.element(
            MultiPoly.variable("Y") + 1)


class TestKernelAndExp:
    def test_kernel_membership(self):
        D = _canonical(S_XY, 1)
        assert kernel_contains(D, S_XY.gen("x"))
        assert not kernel_contains(D, S_XY.gen("z"))
        assert kernel_contains(D, S_XY.element(x ** 2 + 3))

    def test_scale_requires_kernel_element(self):
        D = _canonical(S_XY, 1)
        with pytest.raises(ValueError):
            scale_by_kernel(D, S_XY.gen("z"))

    def test_exp_translation_on_plane(self):
        F = SurfaceSpec.free_ring(("X", "Y"))
        rho = exp_derivation(Derivation(F, {"X": 0, "Y": 1}))
        assert rho.images["Y"] == F.element(MultiPoly.variable("Y") + 1)
        assert rho.images["X"] == F.gen("X")

    def test_exp_of_x_times_canonical(self):
        D = _canonical(S_XY, 1)
        rho = exp_derivation(scale_by_kernel(D, S_XY.gen("x")))
        assert rho.images["z"] == S_XY.element(z + x ** 2)
        assert rho.images["y"] == S_XY.element(y + 2 * x * z + x ** 3)
        # relation preserved: x * rho(y) = rho(z)^2 in the quotient
        assert S_XY.gen("x") * rho.images["y"] == rho.images["z"] ** 2

    def test_exp_zero_is_identity(self):
        assert exp_derivation(Derivation.zero(S_XY)).is_identity()

    def test_exp_inverse_and_commutation(self):
        rnd = random.Random(4)
        D = _canonical(S_X2, 1)
        for _ in range(5):
            w = S_X2.element(random_univariate(rnd, "x", rnd.randint(0, 3)))
            rho = exp_derivation(scale_by_kernel(D, w))
            inv = exp_derivation(scale_by_kernel(D, -w))
            assert rho.compose(inv).is_identity()
            assert inv.compose(rho).is_identity()
            assert commutes(rho, D)

    def test_exp_cap_exceeded(self):
        F = SurfaceSpec.free_ring(("X", "Y"))
        E = Derivation(F, {"X": MultiPoly.variable("X"), "Y": 0})
        with pytest.raises(CapExceededError):
            exp_derivation(E, cap=6)


class TestPlaneRingIsotropyFacts:
    """Isotropy membership sweeps on the free plane K[X,Y]."""

    def setup_method(self):
        self.F = SurfaceSpec.free_ring(("X", "Y"))
        self.X = MultiPoly.variable("X")
        self.Y = MultiPoly.variable("Y")

    def test_partial_x_members(self):
        # (X + p(Y), a + b*Y) commutes with d/dX for any p, a and unit b
        d = Derivation(self.F, {"X": 1, "Y": 0})
        rnd = random.Random(6)
        for _ in range(10):
            p = random_univariate(rnd, "Y", rnd.randint(0, 3), nonzero=False)
            a = Fraction(rnd.randint(-3, 3))
            b = Fraction(rnd.choice([1, -1, 2, 3]))
            rho = RingMap(self.F, {"X": self.X + p,
                                   "Y": MultiPoly.constant(a) + MultiPoly.constant(b) * self.Y})
            assert commutes(rho, d)

    def test_partial_x_non_member(self):
        d = Derivation(self.F, {"X": 1, "Y": 0})
        rho = RingMap(self.F, {"X": 2 * self.X, "Y": self.Y})
        res = commutes(rho, d)
        assert not res and res.generator == "X"

    def test_f_dy_members_require_matching_scale(self):
        # for d = f(X) d/dY, (b*X, p(X) + c*Y) commutes iff f(bX) = c*f(X)
        f = self.X ** 2
        d = Derivation(self.F, {"X": 0, "Y": f})
        rnd = random.Random(8)
        for b in (Fraction(2), Fraction(-1), Fraction(1, 2)):
            p = random_univariate(rnd, "X", 2, nonzero=False)
            good = RingMap(self.F, {"X": MultiPoly.constant(b) * self.X,
                                    "Y": p + MultiPoly.constant(b ** 2) * self.Y})
            assert commutes(good, d)
            bad = RingMap(self.F, {"X": MultiPoly.constant(b) * self.X,
                                   "Y": p + MultiPoly.constant(b ** 2 + 1) * self.Y})
            assert not commutes(bad, d)

    def test_f_dy_translation_in_x_fails(self):
        d = Derivation(self.F, {"X": 0, "Y": self.X ** 2})
        rho = RingMap(self.F, {"X": self.X + 1, "Y": self.Y})
        assert not commutes(rho, d)


_seeds = st.integers(0, 2 ** 30)


@settings(deadline=None, max_examples=100)
@given(_seeds)
def test_leibniz_at_element_level(seed):
    rnd = random.Random(seed)
    S = random.Random(seed + 1).choice([S_XY, S_X2, S_FX])
    D = _canonical(S, random_univariate(rnd, "x", rnd.randint(0, 2)))
    p = S.element(random_poly(rnd, max_exp=2))
    q = S.element(random_poly(rnd, max_exp=2))
    assert D.apply(p * q) == p * D.apply(q) + q * D.apply(p)


@settings(deadline=None, max_examples=50)
@given(_seeds)
def test_representative_independence(seed):
    rnd = random.Random(seed)
    S = random.Random(seed + 1).choice([S_XY, S_X2, S_FX])
    D = _canonical(S, random_univariate(rnd, "x", rnd.randint(0, 2)))

    def raw_apply(poly):
        acc = MultiPoly.zero()
        for v in S.variables:
            acc = acc + poly.partial_derivative(v) * D.images[v].rep
        return S.element(acc)

    p = random_poly(rnd, max_exp=2)
    q = random_poly(rnd, max_exp=2)
    shifted = p + S.relation * q
    assert raw_apply(shifted) == raw_apply(p) == D.apply(S.element(p))


# -- well-definedness against the ideal-membership oracle ---------------------------------

_DIFF_SURFACES = [
    SurfaceSpec.danielewski(3 * x ** 2 + x, z ** 3 + z),  # non-monic f
    SurfaceSpec.danielewski(2 * x ** 2 + 1, z ** 3 + zeta(3) * z),  # f with a constant term
    SurfaceSpec.danielewski(x ** 2 + zeta(12) * x, z ** 2 - zeta(12) ** 5),  # zeta_12 coefficients
]


def _table(S: SurfaceSpec, factory, kind: str, rnd: random.Random) -> dict:
    """A random table, a factory one, or a factory one with one image shifted."""
    if kind == "random":
        return {v: random_poly(rnd, max_exp=2, max_terms=3, cyclotomic=True) for v in "xyz"}
    table = {v: el.rep for v, el in factory(S, random_univariate(rnd, "x", 1)).images.items()}
    if kind == "shifted":
        v = rnd.choice("xyz")
        table[v] = table[v] + random_poly(rnd, max_exp=1, max_terms=2, cyclotomic=True)
    return table


def _oracle_derivation(S: SurfaceSpec, table: dict) -> bool:
    """D(f(x)*y - phi(z)) = sum over v of d/dv(relation) * D(v), expanded term by term, in the ideal."""
    relation, image = term_map(S.relation), {}
    for i, v in enumerate("xyz"):
        image = map_add(image, map_mul(map_derivative(relation, i), term_map(table[v])))
    return in_relation_ideal(MultiPoly(("x", "y", "z"), image), S.f, S.phi)


def _oracle_map(S: SurfaceSpec, table: dict) -> bool:
    """rho(f(x)*y - phi(z)) = f(rho x)*rho y - phi(rho z), expanded term by term, in the ideal."""
    image = map_substitute(term_map(S.relation), [term_map(table[v]) for v in "xyz"])
    return in_relation_ideal(MultiPoly(("x", "y", "z"), image), S.f, S.phi)


# factory, check, public constructor, oracle; the map factory composes the exponential of a canonical LND
# with a triangular map
_CHECKS = {
    "derivation": (lambda S, h: canonical_lnd(S, h).derivation, check_derivation_well_defined, Derivation,
                   _oracle_derivation),
    "map": (lambda S, h: exp_derivation(canonical_lnd(S, h).derivation).compose(triangular(S, h)),
            check_map_well_defined, RingMap, _oracle_map),
}
_REFUSALS = {Derivation: "images do not define a derivation of the quotient ring",
             RingMap: "images do not preserve the relation ideal"}


def _built(kind: type, table: dict, S: SurfaceSpec) -> bool:
    """Whether the public constructor accepts the table; it refuses one only with its kind's message."""
    try:
        kind(S, table)
    except ValueError as exc:
        assert str(exc) == _REFUSALS[kind]
        return False
    return True


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(_CHECKS)), st.sampled_from(range(len(_DIFF_SURFACES))),
       st.sampled_from(["random", "factory", "shifted"]), _seeds)
def test_well_definedness_matches_the_ideal_oracle(check, surface, kind, seed):
    """Both checks and both public constructors agree with ideal membership of the relation's image,
    computed without the library's derivation, substitution or reduction; a canonical or factory table
    always passes."""
    S, (factory, observed, constructor, oracle) = _DIFF_SURFACES[surface], _CHECKS[check]
    table = _table(S, factory, kind, random.Random(seed))
    expected = oracle(S, table)
    assert observed(table, S) == expected
    assert _built(constructor, table, S) == expected
    assert expected or kind != "factory"


@pytest.mark.parametrize("check", sorted(_CHECKS))
@pytest.mark.parametrize("S", _DIFF_SURFACES, ids=["non-monic", "constant term", "zeta12"])
def test_both_verdicts_occur(check, S):
    factory, observed, constructor, _ = _CHECKS[check]
    tables = [_table(S, factory, kind, random.Random(seed)) for kind in ("random", "factory") for seed in range(3)]
    verdicts = {(observed(table, S), _built(constructor, table, S)) for table in tables}
    assert verdicts == {(True, True), (False, False)}


# -- commutation against a full scan of x, y and z -----------------------------------------

# (surface, a root of f, a root of phi): each map (a, p, b) sends f to 0.  The last surface has f = c*x
# and phi = c*(z - a)^d, so the involution and the rescalings exist there, as they do on none of the others
_COMMUTE_SURFACES = [
    (_DIFF_SURFACES[0], 0, 0),
    (_DIFF_SURFACES[1], (zeta(8) ** 3 - zeta(8) ** 5) / 2, 0),  # i/sqrt(2), a root of 2*x^2 + 1
    (_DIFF_SURFACES[2], -zeta(12), zeta(24) ** 5),
    (SurfaceSpec.danielewski(2 * x, 3 * (z - 1) ** 3), 0, 1),
]
_UNITS = [CycScalar(1), CycScalar(-1), CycScalar(2), CycScalar(Fraction(-1, 3)), zeta(3), zeta(4), zeta(12)]
_FAMILIES = [
    lambda S, rnd: hyperbolic_rotation(S, rnd.choice(_UNITS)),
    lambda S, rnd: involution(S),
    lambda S, rnd: triangular(S, random_univariate(rnd, "x", rnd.randint(0, 2))),
    lambda S, rnd: rescaling(S, rnd.choice(_UNITS)),
    lambda S, rnd: symmetry(S, rnd.choice(_UNITS)),
]


def _generator(S: SurfaceSpec, rnd: random.Random) -> RingMap:
    """A random member of a random factory family that exists on S; triangular maps always do."""
    while True:
        try:
            return rnd.choice(_FAMILIES)(S, rnd)
        except ShapeMismatchError:
            pass


def _commute_case(surface: int, kind: str, seed: int) -> tuple[RingMap, Derivation]:
    """g*D0 for a random g in x, against a factory map, a composition of two or three, the public
    constructor's copy of one, or a public (root of f, p, root of phi), which sends f to 0."""
    rnd = random.Random(seed)
    S, a, b = _COMMUTE_SURFACES[surface]
    D = canonical_lnd(S, random_univariate(rnd, "x", rnd.randint(0, 2))).derivation
    rho = _generator(S, rnd)
    if kind == "composition":
        for _ in range(rnd.randint(1, 2)):
            rho = rho.compose(_generator(S, rnd))
    elif kind == "public":
        rho = RingMap(S, {v: el.rep for v, el in rho.images.items()})
    elif kind == "f to 0":
        rho = RingMap(S, {"x": a, "y": random_poly(rnd, max_exp=2, max_terms=3, cyclotomic=True), "z": b})
    return rho, D


def _full_scan(rho: RingMap, D: Derivation) -> tuple:
    """Verdict, witness and its difference's representative from rho(D v) - D(rho v) on every v in order."""
    for v in rho.surface.variables:
        difference = rho.apply(D.images[v]) - D.apply(rho.images[v])
        if not difference.is_zero():
            return False, v, difference.rep
    return True, None, None


_COMMUTE_KINDS = ["factory", "composition", "public", "f to 0"]


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(range(len(_COMMUTE_SURFACES))), st.sampled_from(_COMMUTE_KINDS), _seeds)
def test_commutes_matches_a_full_scan(surface, kind, seed):
    """Deciding y from x and z where rho(f) != 0 gives the verdict, witness and difference that
    comparing all three generators gives."""
    rho, D = _commute_case(surface, kind, seed)
    res = commutes(rho, D)
    difference = None if res.difference is None else res.difference.rep
    assert (res.commutes, res.generator, difference) == _full_scan(rho, D)


@pytest.mark.parametrize("surface", range(len(_COMMUTE_SURFACES)))
def test_both_commutation_verdicts_occur(surface):
    verdicts = {_full_scan(*_commute_case(surface, kind, seed))[0]
                for kind in _COMMUTE_KINDS for seed in range(4)}
    assert verdicts == {True, False}


# -- one reduction per application ----------------------------------------------------------

_F5 = SurfaceSpec.free_ring(("a", "b", "c", "d", "e"))


@pytest.mark.parametrize("build, p", [
    (lambda: _canonical(S_FX, x + 1), S_FX.element(x * y * z + y ** 2 + z ** 3)),
    (lambda: Derivation(_F5, {v: MultiPoly.variable(w) for v, w in zip("abcde", "bcdea")}),
     _F5.element(MultiPoly.variable("a") * MultiPoly.variable("b") * MultiPoly.variable("c")
                 + MultiPoly.variable("d") * MultiPoly.variable("e"))),
    (lambda: triangular(S_FX, x + 2), S_FX.element(x * y * z + y ** 2 + z ** 3)),
    (lambda: RingMap(_F5, {v: MultiPoly.variable(w) + 1 for v, w in zip("abcde", "bcdea")}),
     _F5.element(MultiPoly.variable("a") * MultiPoly.variable("b") + MultiPoly.variable("e") ** 3)),
], ids=["derivation on a relation surface", "derivation on a free ring", "map on a relation surface",
        "map on a free ring"])
def test_apply_reduces_once_per_call(monkeypatch, build, p):
    """apply builds the image's representative by one rule, Leibniz or substitution, and reduces it once,
    not once per generator."""
    op, calls, reduce = build(), [], SurfaceSpec.reduce
    expected = op.apply(p)
    monkeypatch.setattr(SurfaceSpec, "reduce", lambda S, q: calls.append(q) or reduce(S, q))
    assert op.apply(p) == expected and len(calls) == 1


class TestRecords:
    """The result records are immutable NamedTuples with defaults, their own truth value and text."""

    def test_defaults_and_keywords(self):
        res = CommutationResult(True)
        assert (res.commutes, res.generator, res.difference) == (True, None, None)
        assert CommutationResult(commutes=False, generator="x").generator == "x"
        report = NilpotencyReport(indices={"x": 1}, cap=3)
        assert report.indices == {"x": 1} and report.cap == 3

    def test_immutable(self):
        for record, field in ((CommutationResult(True), "commutes"),
                              (NilpotencyReport({"x": 1}, 3), "cap")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_truth_value_is_the_verdict(self):
        assert bool(CommutationResult(False)) is False
        assert bool(CommutationResult(True)) is True
        assert bool(CommutationResult(False, "x", S_XY.gen("x"))) is False

    def test_text(self):
        assert str(NilpotencyReport({"x": 1, "y": None, "z": 2}, 7)) == \
            "x: 1; y: exceeded cap; z: 2 (cap 7) -> inconclusive"
        report = NilpotencyReport({"x": 1, "y": 3, "z": 2}, 7)
        assert str(report) == "x: 1; y: 3; z: 2 (cap 7) -> locally nilpotent"
        assert report.all_nilpotent and not report.inconclusive
        assert repr(CommutationResult(True)) == \
            "CommutationResult(commutes=True, generator=None, difference=None)"


class TestChecksInTheMonicField:
    """f = zeta(11)*x puts the unit zeta(11) into the relation, at conductor 143; the monic relation
    x*y - z^2 - zeta(13) is at 13.  Tables over Q(zeta_7) or Q(zeta_91) checked against the relation
    would need Q(zeta_1001), above MAX_CONDUCTOR; against the monic relation they need Q(zeta_91)."""

    S = SurfaceSpec.danielewski(zeta(11) * x, zeta(11) * z ** 2 + zeta(11) * zeta(13))
    D = {"x": 0, "y": 2 * zeta(7) * zeta(13) * z, "z": zeta(7) * zeta(13) * x}

    def test_triangular_map_is_well_defined(self):
        T = triangular(self.S, zeta(11) ** -1 * zeta(7) * x)
        assert check_map_well_defined(T.images, self.S)
        assert not check_map_well_defined({"x": x, "y": y, "z": zeta(7) * z}, self.S)

    def test_derivation_is_well_defined_and_locally_nilpotent(self):
        assert check_derivation_well_defined(self.D, self.S)
        assert not check_derivation_well_defined({**self.D, "y": self.D["y"] + 1}, self.S)
        assert str(is_locally_nilpotent(Derivation(self.S, self.D))) == \
            "x: 1; y: 3; z: 2 (cap 6) -> locally nilpotent"


def test_wide_ring_str_matches_fraction_renderer():
    """On 1,000 generators with D(g_i) = g_(i+1), D(sum g_i*g_(i+7)) has 1,985 terms, each over at most
    two of the 1,000 key slots; str reads only those and prints what the Fraction renderer prints."""
    names = [f"g{i}" for i in range(1000)]
    g = [MultiPoly.variable(v) for v in names]
    F = SurfaceSpec.free_ring(names)
    D = Derivation(F, {v: g[i + 1] if i < 999 else 0 for i, v in enumerate(names)})
    result = D.apply(MultiPoly.zero()._merged([(g[i] * g[i + 7], 1) for i in range(993)])).rep
    assert len(result.nums) == 1985
    assert str(result) == render_with_fractions(result)
