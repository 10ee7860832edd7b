"""The value types share one frozen base: a write or delete after construction raises, the repr is
``Type(str)``, and ``copy.copy``, ``copy.deepcopy`` and ``pickle`` rebuild an equal value, with the same hash
and text."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from danisurf.diffmaps import exp_derivation
from danisurf.exactnum import CycScalar, zeta
from danisurf.isotropy import canonical_lnd, triangular
from danisurf.multipoly import _SHIFT, MultiPoly
from danisurf.surface import SurfaceSpec

x, y, z = (MultiPoly.variable(v) for v in "xyz")
A, B = MultiPoly.variable("A"), MultiPoly.variable("B")
S = SurfaceSpec.danielewski(x ** 2 + 1, z ** 3 + z + 1)
F = SurfaceSpec.free_ring(["A", "B"])

# id -> (a function building the value afresh, its repr)
VALUES = {
    "rational scalar": (lambda: CycScalar(Fraction(-3, 4)), "CycScalar(-3/4)"),
    "cyclotomic scalar": (lambda: zeta(12) + Fraction(1, 2) * zeta(5), "CycScalar(1/2*zeta(60)^12 + zeta(60)^5)"),
    "polynomial in x, y, z": (lambda: (x + zeta(7) * y * z) ** 2 - Fraction(1, 3),
                              "MultiPoly((zeta(7)^2)*y^2*z^2 + (2*zeta(7))*x*y*z + x^2 - 1/3)"),
    "polynomial in other names": (lambda: A ** 3 * B + 2 * A, "MultiPoly(A^3*B + 2*A)"),
    "relation surface": (lambda: S, "SurfaceSpec(f=x^2 + 1; phi=z^3 + z + 1)"),
    "free ring": (lambda: F, "SurfaceSpec(free: A,B)"),
    "relation element": (lambda: S.element(x ** 3 * y + z), "SurfaceElement(x*z^3 - x*y + x*z + x + z)"),
    "free element": (lambda: F.element(A * B - 1), "SurfaceElement(A*B - 1)"),
    "canonical derivation": (lambda: canonical_lnd(S, x).derivation,
                             "Derivation(D: x -> 0; y -> 3*x*z^2 + x; z -> x^3 + x)"),
    "exponential map": (lambda: exp_derivation(canonical_lnd(S, 1).derivation),
                        "RingMap(M: x -> x; y -> x^4 + 3*x^2*z + 2*x^2 + 3*z^2 + y + 3*z + 2; z -> x^2 + z + 1)"),
    "triangular map, T(y) unread": (
        lambda: triangular(S, x * Fraction(1, 2)),
        "RingMap(M: x -> x; y -> 1/8*x^7 + 1/4*x^5 + 3/4*x^4*z + 1/8*x^3 + 3/4*x^2*z + 3/2*x*z^2 + 1/2*x + y; "
        "z -> 1/2*x^3 + 1/2*x + z)"),
}

COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda v: pickle.loads(pickle.dumps(v))}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", VALUES)
def test_a_copy_is_an_equal_value(name, how):
    value = VALUES[name][0]()
    twin = COPIES[how](value)  # before anything reads a deferred image
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value) and str(twin) == str(value)


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_the_type_and_the_text(name):
    build, text = VALUES[name]
    assert repr(build()) == text


# one value of each of the six value types, with one of its slots
SLOTS = [("rational scalar", "den"), ("polynomial in x, y, z", "nums"), ("relation surface", "f"),
         ("free element", "rep"), ("canonical derivation", "images"), ("exponential map", "surface")]


@pytest.mark.parametrize("name,attribute", SLOTS)
def test_a_value_refuses_every_write(name, attribute):
    value = VALUES[name][0]()
    for attr in (attribute, "extra"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, attr, None)


@pytest.mark.parametrize("name,attribute", SLOTS)
def test_a_value_refuses_every_delete(name, attribute):
    build, text = VALUES[name]
    value = build()
    for attr in (attribute, "extra"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, attr)
    assert repr(value) == text and value == build()


def test_a_polynomial_pickled_where_its_names_took_other_slots_reads_back_equal():
    """A key's slots belong to one process: the writer meets the second name first, so it keys the
    monomials differently, and the pickle must carry exponents, not keys."""
    a, b = MultiPoly.variable("pickled_A"), MultiPoly.variable("pickled_B")  # names no other test uses
    assert _SHIFT["pickled_A"] < _SHIFT["pickled_B"]
    src = Path(__file__).resolve().parent.parent / "src"
    writer = ("import pickle, sys; sys.path.insert(0, sys.argv[1])\n"
              "from danisurf.multipoly import _SHIFT, MultiPoly\n"
              "b, a = (MultiPoly.variable(v) for v in ('pickled_B', 'pickled_A'))\n"
              "assert _SHIFT['pickled_B'] < _SHIFT['pickled_A']\n"
              "sys.stdout.buffer.write(pickle.dumps(a ** 3 * b + 2 * a))")
    done = subprocess.run([sys.executable, "-E", "-s", "-c", writer, str(src)], capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    p = pickle.loads(done.stdout)
    assert p == a ** 3 * b + 2 * a and hash(p) == hash(a ** 3 * b + 2 * a)
    assert str(p) == "pickled_A^3*pickled_B + 2*pickled_A"
