"""Brauer classes by B^2 membership, against the coset route.

`BrauerClass.of_twist` gives every unit cocycle the identity class (the
first norm-1 row of B^2) once it has read B^2 and found u in it; a row of
the Z^2 that compute_h2 kept needs no comparison.  The oracle is
`conftest.coset_class`: the products of u with all of B^2, their norms and
`unique_rows`.  Every row of Z^2, products of pairs of rows, every inverse
and `is_identity` are compared with it.  The trip tests corrupt B^2 and
expect InternalCheckError; the guards count the coset products and face
computations left on the path.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from corings import classify
from corings.amitsur import TwistElement, compute_h2, unit_twist
from corings.classify import BrauerClass
from corings.extensions import Extension
from corings.rings import FiniteRing, InternalCheckError, RingTooLarge, make_quotient_ring, try_invert, zmod_ring
from tests.conftest import (
    RANDOM_EXTENSION_CASES, coset_class, desk_extensions, random_case_extension, simple_extension
)


def fresh(ext):
    """The same extension with an empty memo."""
    return Extension(ext.base, ext.top, ext.eta, ext.basis)


def gf9():
    return simple_extension(zmod_ring(3), make_quotient_ring(3, [1, 0, 1]))


def gf25():
    return simple_extension(zmod_ring(5), make_quotient_ring(5, [2, 0, 1]))  # x^2 + 2 is irreducible mod 5


def check_lookup_against_cosets(ext, cap=2**20):
    """Every row of Z^2 and its inverse; all pairs of rows when |Z^2| <= 32,
    else each row with its two neighbours in lex order."""
    ext = fresh(ext)
    g = compute_h2(ext, cap=cap)
    t3 = ext.tensor_power(3).ring
    one = coset_class(ext, t3.one, g.b2)
    classes = [BrauerClass.of_twist(TwistElement(ext, row), cap=cap) for row in g.z2]
    for row, c in zip(g.z2, classes):
        assert c.rep == coset_class(ext, row, g.b2) == one
        assert c.inverse().rep == coset_class(ext, try_invert(t3.element(row)).coeffs, g.b2)
        assert c.is_identity() == (coset_class(ext, row, g.b2) == one)
    shifts = range(len(g.z2)) if len(g.z2) <= 32 else (1, len(g.z2) - 1)
    for k in shifts:
        for i, j in enumerate(np.roll(np.arange(len(g.z2)), k)):
            want = coset_class(ext, t3.mul_vec(g.z2[i], g.z2[j]), g.b2)
            assert (classes[i] * classes[j]).rep == want
    assert BrauerClass.of_twist(unit_twist(ext), cap=cap).is_identity()


def test_lookup_matches_cosets_on_desk_fixtures(request):
    """The desk fixtures and the rebased (F4⊗F4)/F4."""
    for ext in desk_extensions(request):
        check_lookup_against_cosets(ext)


def test_lookup_matches_cosets_on_gf25():
    check_lookup_against_cosets(gf25())


@settings(max_examples=25, deadline=None)
@given(RANDOM_EXTENSION_CASES)
def test_lookup_matches_cosets_on_random_extensions(case):
    check_lookup_against_cosets(random_case_extension(case), cap=2**21)


def test_rows_outside_a_kept_z2_take_the_same_route(monkeypatch):
    """A twist of an extension where compute_h2 has not run is looked up in
    B^2 too: the same class as a kept row, and no coset product either way."""
    kept, plain = gf9(), gf9()
    z2 = compute_h2(kept).z2
    for ext in (kept, plain):
        BrauerClass.of_twist(TwistElement(ext, z2[0]))  # builds B^2 and the maps once
    calls = count_calls(monkeypatch, FiniteRing, "products")
    for row in z2:
        assert BrauerClass.of_twist(TwistElement(plain, row)).rep == BrauerClass.of_twist(TwistElement(kept, row)).rep
    assert calls == []
    assert "identity_class" in plain._cache and "z2_inverses" not in plain._cache


# -- trips ------------------------------------------------------------------------------


def test_cocycle_outside_b2_raises(monkeypatch):
    """A B^2 with one row dropped: that row, a unit cocycle of an extension
    where compute_h2 has not run, is refused rather than named."""
    ext = gf9()
    b2 = compute_h2(gf9()).b2
    row = b2[len(b2) // 2]
    monkeypatch.setattr(classify, "b2_rows", lambda ext_, cap: np.delete(b2, len(b2) // 2, axis=0))
    BrauerClass.of_twist(TwistElement(ext, b2[0]))
    with pytest.raises(InternalCheckError, match="unit 2-cocycle outside B\\^2"):
        BrauerClass.of_twist(TwistElement(ext, row))


def test_b2_without_a_norm_one_row_raises(monkeypatch):
    ext = gf9()
    g = compute_h2(ext)
    norms = (g.b2 @ ext.collapse_map(3).matrix.T) % ext.n
    unnormalized = g.b2[~(norms == ext.top.one).all(axis=1)]
    assert 0 < len(unnormalized) < len(g.b2)
    monkeypatch.setattr(classify, "b2_rows", lambda ext_, cap: unnormalized)
    with pytest.raises(InternalCheckError, match="B\\^2 contains no normalized cocycle"):
        BrauerClass.of_twist(TwistElement(ext, g.z2[0]))
    assert "identity_class" not in ext._cache


@pytest.mark.parametrize("build", [gf9, gf25])
def test_kept_row_under_a_smaller_cap_is_refused_as_the_coset_route(build):
    kept, plain = build(), build()
    z2 = compute_h2(kept).z2
    small = kept.tensor_power(2).ring.size - 1
    BrauerClass.of_twist(TwistElement(kept, z2[0]))  # the identity class is kept
    refusals = []
    for ext in (kept, plain):
        with pytest.raises(RingTooLarge) as err:
            BrauerClass.of_twist(TwistElement(ext, z2[-1]), cap=small)
        refusals.append(str(err.value))
    assert refusals[0] == refusals[1]
    assert "identity_class" in kept._cache and "identity_class" not in plain._cache


# -- guards ------------------------------------------------------------------------------


def count_calls(monkeypatch, cls, name):
    """Wrap a method so that its calls are counted; returns the list of calls."""
    calls, method = [], getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("build", [gf9, gf25])
def test_kept_rows_form_no_coset_and_no_face(build, monkeypatch):
    ext = build()
    z2 = compute_h2(ext).z2
    ext.collapse_map(3)  # the norm map, built once per extension
    products = count_calls(monkeypatch, FiniteRing, "products")
    faces = count_calls(monkeypatch, TwistElement, "faces")
    classes = [BrauerClass.of_twist(TwistElement(ext, row)) for row in z2]
    for a, b in zip(classes, classes[1:] + classes[:1]):
        assert (a * b).is_identity() and a.inverse().is_identity()
    assert (products, faces) == ([], [])
    assert all(TwistElement(ext, row).is_cosickle for row in z2) and faces == []
