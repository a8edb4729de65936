"""Brauer classes of a kept Z^2 read from the memo, against the coset route.

Once compute_h2 has proved Z^2 = B^2 and kept Z^2, `BrauerClass.of_twist`
gives each kept row the identity class (the first norm-1 row of B^2), and
`TwistElement.is_cosickle` reads one batched verdict over all of Z^2.  The
oracle is `conftest.coset_class`: the products of u with all of B^2, their
norms and `unique_rows`.  Every row of Z^2, products of pairs of rows,
every inverse and `is_identity` are compared with it.  The trip tests
corrupt the batch or B^2 and expect InternalCheckError with nothing kept;
the guards count the coset products and face computations left on the path.
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


def test_rows_outside_a_kept_z2_keep_the_coset_route(monkeypatch):
    """A twist of an extension where compute_h2 has not run multiplies by B^2."""
    kept, plain = gf9(), gf9()
    z2 = compute_h2(kept).z2
    for ext in (kept, plain):
        BrauerClass.of_twist(TwistElement(ext, z2[0]))  # builds B^2 and the maps once
    calls = count_calls(monkeypatch, FiniteRing, "products")
    for row in z2:
        assert BrauerClass.of_twist(TwistElement(plain, row)).rep == BrauerClass.of_twist(TwistElement(kept, row)).rep
    assert len(calls) == len(z2)
    assert "identity_class" not in plain._cache and "z2_cosickle" not in plain._cache


# -- trips ------------------------------------------------------------------------------


def test_batched_cosickle_verdict_off_on_one_row_raises(monkeypatch):
    ext = gf9()
    z2 = compute_h2(ext).z2
    t4 = ext.tensor_power(4).ring
    honest, calls = t4.mul_rows, []

    def off_one(x, y):
        """u_1 u_3 off by one on the middle row: the first side of each check."""
        out = honest(x, y)
        calls.append(len(x))
        if len(calls) % 2:
            out = out.copy()
            out[len(out) // 2, 0] = (out[len(out) // 2, 0] + 1) % ext.n
        return out

    monkeypatch.setattr(t4, "mul_rows", off_one)
    with pytest.raises(InternalCheckError, match="disagrees with u_1 u_3 = u_2 u_4"):
        TwistElement(ext, z2[0]).is_cosickle
    with pytest.raises(InternalCheckError, match="disagrees with u_1 u_3 = u_2 u_4"):
        BrauerClass.of_twist(TwistElement(ext, z2[-1]))
    assert calls == [len(z2)] * 4
    assert "z2_cosickle" not in ext._cache and "identity_class" not in ext._cache
    monkeypatch.undo()
    assert TwistElement(ext, z2[0]).is_cosickle and ext._cache["z2_cosickle"] is True


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
