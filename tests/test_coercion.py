"""One coercion rule per layer: a public entry point given a value of a foreign type raises
TypeError, and the arithmetic operators return NotImplemented for one, so Python tries the other
operand's reflected method and, failing that, raises its own "unsupported operand" TypeError.
An element of another surface raises ValueError, with one message wherever it is given, and a value
of an entry's own type (a scalar to `CycScalar`, an element of S to `S.element`) comes back as it is."""

import pytest

from danisurf.diffmaps import (Derivation, RingMap, apply_derivation, apply_map, check_derivation_well_defined,
                               check_map_well_defined, kernel_contains, scale_by_kernel)
from danisurf.exactnum import CycScalar, root_of_unity_order, zeta
from danisurf.isotropy import (canonical_lnd, classify_phi, hyperbolic_order_bound, monomial_split, triangular,
                               verify_isotropy_theorem)
from danisurf.multipoly import _SHIFT, MultiPoly
from danisurf.surface import SurfaceElement, SurfaceSpec, normal_form

x, y, z = (MultiPoly.variable(v) for v in "xyz")
S = SurfaceSpec.danielewski(x, z ** 2)
D = canonical_lnd(S, 1).derivation
RHO = RingMap.identity(S)

ENTRY_POINTS = {
    "danielewski f": lambda v: SurfaceSpec.danielewski(v, z ** 2),
    "danielewski phi": lambda v: SurfaceSpec.danielewski(x, v),
    "element": S.element,
    "normal_form": lambda v: normal_form(v, S),
    "Derivation table": lambda v: Derivation(S, {"x": v, "y": 0, "z": 0}),
    "RingMap table": lambda v: RingMap(S, {"x": v, "y": y, "z": z}),
    "derivation table check": lambda v: check_derivation_well_defined({"x": 0, "y": v, "z": 0}, S),
    "map table check": lambda v: check_map_well_defined({"x": x, "y": y, "z": v}, S),
    "Derivation.apply": D.apply,
    "apply_derivation": lambda v: apply_derivation(D, v),
    "RingMap.apply": RHO.apply,
    "apply_map": lambda v: apply_map(RHO, v),
    "scaled_by": D.scaled_by,
    "scale_by_kernel": lambda v: scale_by_kernel(D, v),
    "kernel_contains": lambda v: kernel_contains(D, v),
    "triangular": lambda v: triangular(S, v),
    "canonical_lnd": lambda v: canonical_lnd(S, v),
    "classify_phi": classify_phi,
    "monomial_split": monomial_split,
    "hyperbolic_order_bound": lambda v: hyperbolic_order_bound(v, 1),
    "verify_isotropy_theorem g": lambda v: verify_isotropy_theorem(S, v),
    "root_of_unity_order": root_of_unity_order,
    "substitute image": lambda v: x.substitute({"x": v}),
    "coefficient_of power": lambda v: x.coefficient_of("x", v),
}


@pytest.mark.parametrize("value", ["x^2", "x", 1.5])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_foreign_values_raise_type_error(entry, value):
    with pytest.raises(TypeError, match=repr(value).replace("^", r"\^")):
        ENTRY_POINTS[entry](value)


OTHER = SurfaceSpec.danielewski(x ** 2, z ** 2).gen("x")  # x on another surface
F, OTHER_FREE = SurfaceSpec.free_ring(("X", "Y")), SurfaceSpec.free_ring(("X", "Y", "Z")).gen("X")
OTHER_SURFACE_ENTRY_POINTS = {
    "Derivation.apply": lambda: D.apply(OTHER),
    "RingMap.apply": lambda: RHO.apply(OTHER),
    "Derivation table": lambda: Derivation(S, {"x": OTHER, "y": 0, "z": 0}),
    "RingMap table": lambda: RingMap(S, {"x": OTHER, "y": y, "z": z}),
    "derivation table check": lambda: check_derivation_well_defined({"x": 0, "y": OTHER, "z": 0}, S),
    "map table check": lambda: check_map_well_defined({"x": x, "y": y, "z": OTHER}, S),
    "free derivation table check": lambda: check_derivation_well_defined({"X": OTHER_FREE, "Y": 0}, F),
    "free map table check": lambda: check_map_well_defined({"X": OTHER_FREE, "Y": 0}, F),
    "scaled_by": lambda: D.scaled_by(OTHER),
    "kernel_contains": lambda: kernel_contains(D, OTHER),
    "element": lambda: S.element(OTHER),
    "normal_form": lambda: normal_form(OTHER, S),
    "free element": lambda: F.element(OTHER_FREE),
    "+": lambda: S.gen("x") + OTHER,
    "-": lambda: S.gen("x") - OTHER,
    "*": lambda: S.gen("x") * OTHER,
}


@pytest.mark.parametrize("entry", OTHER_SURFACE_ENTRY_POINTS)
def test_another_surfaces_element_raises_value_error(entry):
    """Every entry point that takes an element coerces it by one rule, which refuses an element of
    another surface with one message, also on a free ring, whose tables are otherwise unchecked."""
    with pytest.raises(ValueError, match="^elements live on different surfaces$"):
        OTHER_SURFACE_ENTRY_POINTS[entry]()


@pytest.mark.parametrize("build, value", [
    (CycScalar, zeta(12)), (CycScalar, CycScalar(3)), (MultiPoly._coerce, x),
    (S.element, S.gen("x")), (S.element, SurfaceSpec.danielewski(x, z ** 2).gen("y")), (F.element, F.gen("X")),
], ids=["cyclotomic", "rational", "polynomial", "element", "element of an equal surface", "free element"])
def test_a_value_of_the_entrys_own_type_is_returned_unchanged(build, value):
    """Each value type has one entry, its constructor, which returns a value of that type as it is."""
    assert build(value) is value


@pytest.mark.parametrize("build, value", [
    (lambda: MultiPoly.variable(3), 3),
    (lambda: MultiPoly((1,), {(1,): 1}), 1),
    (lambda: SurfaceSpec.free_ring(["X", 1]), 1),
    (lambda: MultiPoly(("name_never_used", None), {(1, 1): 1}), None),
], ids=["variable", "MultiPoly", "free_ring", "second name"])
def test_foreign_names_raise_type_error_before_any_takes_a_slot(build, value):
    """A variable name takes a key slot for the life of the process, so a name that is not a str
    is refused before any name of the call is registered."""
    before = dict(_SHIFT)
    with pytest.raises(TypeError, match=f"not {value!r}$"):
        build()
    assert _SHIFT == before


def test_reflected_operators_reach_the_element():
    for result in (x + S.element(y), x * S.element(y), 2 - S.element(y), zeta(3) * S.element(y)):
        assert isinstance(result, SurfaceElement)
    assert (x + S.element(y)).rep == x + y and (x * S.element(y)).rep == z ** 2


@pytest.mark.parametrize("left, type_name", [(x, "MultiPoly"), (S.element(x), "SurfaceElement"),
                                             (zeta(4), "CycScalar")])
def test_foreign_operands_are_python_type_errors(left, type_name):
    with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for \+: '{type_name}' and 'str'"):
        left + "a"
    with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for -: 'str' and '{type_name}'"):
        "a" - left
    with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for \*: 'float' and '{type_name}'"):
        1.5 * left
    assert (left == "a") is False and left != "a"
