"""The Z^2 facts that compute_h2 proves in one batch, against the per-element route.

`compute_h2` inverts every row of Z^2 at once (a power u^(L-1)), checks
u·u^(L-1) = 1, delta_2(u) = 1 and u_1 u_3 = u_2 u_4 on every row from one
set of face images, and keeps the inverses in the extension's memo.  A
`TwistElement` on a kept row reads its inverse, delta_2 = 1 and its
cosickle verdict from there; any other twist runs `try_invert` and its own
delta_2, which stay as the oracle.  Each extension is built twice: once with
compute_h2 run, and once fresh, with no shared memo, on the per-element
route.  The trip tests corrupt the batch or the kept facts and expect
InternalCheckError; the guards count the single-element work left on the
Brauer-class path once Z^2 is kept.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from corings import amitsur
from corings.amitsur import TwistElement, _kept_z2, cohomologous, compute_h2, cosickle_zeros
from corings.classify import BrauerClass, monoid_quotient
from corings.extensions import Extension
from corings.rings import DEFAULT_CAP, Grid, InternalCheckError, make_quotient_ring, try_invert, zmod_ring
from tests.conftest import DESK, RANDOM_EXTENSION_CASES, desk_extensions, random_case_extension, simple_extension


def fresh(ext):
    """The same extension with an empty memo: no tensor power, Z^2 or B^2 shared."""
    return Extension(ext.base, ext.top, ext.eta, ext.basis)


class CountingKept(dict):
    """A kept Z^2 that counts the lookups that find a row."""

    hits = 0

    def __contains__(self, key):
        found = super().__contains__(key)
        self.hits += found
        return found

    def get(self, key, default=None):
        self.hits += super().__contains__(key)
        return super().get(key, default)


def outside_rows(ext, z2, rng, cap, k=24):
    """Up to k units and k non-units of S^⊗3 outside Z^2, lex order."""
    t3 = ext.tensor_power(3).ring
    grid = Grid.of(t3, cap)
    units = t3.unit_mask(cap)
    picked = []
    for mask in (units & ~cosickle_zeros(ext, cap), ~units):
        idx = np.flatnonzero(mask)
        picked.append(rng.choice(idx, min(k, len(idx)), replace=False))
    rows = grid.rows_at(np.sort(np.concatenate(picked)))
    kept = {row.tobytes() for row in z2}
    assert not any(row.tobytes() in kept for row in rows)
    return rows


def check_kept_against_fresh(ext, monkeypatch, seed, cap=DEFAULT_CAP):
    kept_ext, plain_ext = fresh(ext), fresh(ext)
    g = compute_h2(kept_ext, cap=cap)
    assert g.order == 1 and len(g.z2) == len(g.b2)
    kept = _kept_z2(kept_ext)
    assert len(kept) == len(g.z2) and not any(v.flags.writeable for v in kept.values())
    plain_t3 = plain_ext.tensor_power(3).ring
    for row in g.z2:
        want = try_invert(plain_t3.element(row)).coeffs
        assert kept[row.tobytes()].dtype == want.dtype and kept[row.tobytes()].tobytes() == want.tobytes()
        a, b = TwistElement(kept_ext, row), TwistElement(plain_ext, row)
        assert a.inverse.coeffs.tobytes() == b.inverse.coeffs.tobytes()
        assert (a.is_two_cocycle, a.is_cocycle, a.is_unit) == (b.is_two_cocycle, b.is_cocycle, b.is_unit) == (True,) * 3
    assert _kept_z2(plain_ext) is None

    counting = CountingKept(kept)
    monkeypatch.setitem(kept_ext._cache, "z2_inverses", counting)
    calls = []
    monkeypatch.setattr(amitsur, "try_invert", lambda x: calls.append(x) or try_invert(x))
    rows = outside_rows(kept_ext, g.z2, np.random.default_rng(seed), cap)
    for row in rows:
        a, b = TwistElement(kept_ext, row), TwistElement(plain_ext, row)
        assert (a.is_two_cocycle, a.is_cocycle, a.is_unit) == (b.is_two_cocycle, b.is_cocycle, b.is_unit)
        assert not a.is_two_cocycle
        if a.is_unit:
            assert a.inverse.coeffs.tobytes() == b.inverse.coeffs.tobytes()
    assert counting.hits == 0
    assert len(calls) == 2 * len(rows)  # once per twist on each extension
    assert TwistElement(kept_ext, g.z2[0]).is_two_cocycle and counting.hits > 0


def test_kept_z2_matches_per_element_route_on_desk_fixtures(request, monkeypatch):
    """The desk fixtures, GF(9)/F3 and GR(4,2)/Z4 among them, and (F4⊗F4)/F4."""
    for seed, ext in enumerate(desk_extensions(request)):
        check_kept_against_fresh(ext, monkeypatch, seed)


def test_kept_z2_matches_per_element_route_on_gf25():
    ext = simple_extension(zmod_ring(5), make_quotient_ring(5, [2, 0, 1]))  # x^2 + 2 is irreducible mod 5
    with pytest.MonkeyPatch.context() as mp:
        check_kept_against_fresh(ext, mp, 25)
    assert len(compute_h2(ext).z2) == 96


@settings(max_examples=25, deadline=None)
@given(RANDOM_EXTENSION_CASES)
def test_kept_z2_matches_per_element_route_on_random_extensions(case):
    with pytest.MonkeyPatch.context() as mp:
        check_kept_against_fresh(random_case_extension(case), mp, case[-1], cap=2**21)


# -- trips ------------------------------------------------------------------------------


def gf9():
    return simple_extension(zmod_ring(3), make_quotient_ring(3, [1, 0, 1]))


def test_corrupt_batch_inverse_raises(monkeypatch):
    ext = gf9()
    t3 = ext.tensor_power(3).ring
    honest = t3.pow_rows

    def corrupt(x, e):
        out = honest(x, e).copy()
        out[len(out) // 2, 0] = (out[len(out) // 2, 0] + 1) % ext.n
        return out

    monkeypatch.setattr(t3, "pow_rows", corrupt)
    with pytest.raises(InternalCheckError, match="u·u"):
        compute_h2(ext)
    assert _kept_z2(ext) is None


def off_one_on_call(monkeypatch, ring, k):
    """Make call k of ring.mul_rows return its middle row off by one; returns the call sizes."""
    honest, calls = ring.mul_rows, []

    def off_one(x, y):
        out = honest(x, y)
        calls.append(len(x))
        if len(calls) == k:
            out = out.copy()
            out[len(out) // 2, 0] = (out[len(out) // 2, 0] + 1) % ring.n
        return out

    monkeypatch.setattr(ring, "mul_rows", off_one)
    return calls


def test_batch_delta2_off_one_raises(monkeypatch):
    """The product of the faces eta_2, eta_4 of the inverses, off on one row."""
    ext = gf9()
    calls = off_one_on_call(monkeypatch, ext.tensor_power(4).ring, 2)
    with pytest.raises(InternalCheckError, match="delta_2\\(u\\) != 1"):
        compute_h2(ext)
    assert _kept_z2(ext) is None and calls == [16] * 3


def test_batch_cosickle_off_on_one_row_raises(monkeypatch):
    """u_2 u_4 off on one row, where delta_2(u) = 1 holds: the two verdicts disagree."""
    ext = gf9()
    calls = off_one_on_call(monkeypatch, ext.tensor_power(4).ring, 4)
    with pytest.raises(InternalCheckError, match="disagrees with u_1 u_3 = u_2 u_4"):
        compute_h2(ext)
    assert _kept_z2(ext) is None and calls == [16] * 4
    monkeypatch.undo()
    z2 = compute_h2(ext).z2
    assert _kept_z2(ext) is not None and all(TwistElement(ext, row).is_cosickle for row in z2)


def test_dropped_kept_row_is_a_missed_cocycle(monkeypatch):
    ext = gf9()
    z2 = compute_h2(ext).z2
    row = z2[len(z2) // 2]
    monkeypatch.delitem(_kept_z2(ext), row.tobytes())
    with pytest.raises(InternalCheckError, match="sweep missed a cocycle"):
        TwistElement(ext, row).is_two_cocycle
    assert TwistElement(ext, z2[0]).is_two_cocycle


def test_order_other_than_one_raises(monkeypatch):
    """B^2 = {1} lies in Z^2, but |Z^2| = |B^2| fails, before any inverse is kept."""
    ext = gf9()
    one = ext.tensor_power(3).one_vec()[None, :]
    monkeypatch.setattr(amitsur, "b2_rows", lambda ext_, cap, jobs: one)
    with pytest.raises(InternalCheckError, match=r"\|Z\^2\| = 16 != \|B\^2\| = 1"):
        compute_h2(ext)
    assert _kept_z2(ext) is None


def test_b2_outside_z2_raises(monkeypatch):
    """A B^2 of the size of Z^2 with one row swapped for a unit outside Z^2."""
    ext = gf9()
    t3 = ext.tensor_power(3).ring
    grid = Grid.of(t3, DEFAULT_CAP)
    units, cosickles = t3.unit_mask(DEFAULT_CAP), cosickle_zeros(ext)
    b2 = grid.rows(cosickles & units)
    b2[len(b2) // 2] = grid.rows_at(np.flatnonzero(units & ~cosickles)[:1])[0]
    monkeypatch.setattr(amitsur, "b2_rows", lambda ext_, cap, jobs: b2)
    with pytest.raises(InternalCheckError, match="B\\^2 is not contained in Z\\^2"):
        compute_h2(ext)
    assert _kept_z2(ext) is None


# -- guards ------------------------------------------------------------------------------


@pytest.mark.parametrize("name", DESK)
def test_brauer_classes_of_kept_rows_run_no_single_element_inverse_or_delta2(request, name, monkeypatch):
    ext = fresh(request.getfixturevalue(name))
    z2 = compute_h2(ext).z2
    inverts, faces = [], []
    honest = amitsur._face_product
    monkeypatch.setattr(amitsur, "try_invert", lambda x: inverts.append(x) or try_invert(x))

    def counted(ext_, level, v, v_inv):
        if np.ndim(v) == 1:
            faces.append(level)
        return honest(ext_, level, v, v_inv)

    monkeypatch.setattr(amitsur, "_face_product", counted)
    classes = [BrauerClass.of_twist(TwistElement(ext, row)) for row in z2]
    for a, b in zip(classes, classes[1:] + classes[:1]):
        assert (a * b).is_identity() and (a * b.inverse()).is_identity()
    for u, v in zip(z2, np.roll(z2, 1, axis=0)):
        assert cohomologous(TwistElement(ext, u), TwistElement(ext, v)) is not None
    assert (inverts, faces) == ([], [])


def test_h2_forms_no_coset(request, monkeypatch):
    """Z^2 = B^2 is one row-for-row check: compute_h2 answers with the coset
    route (`Grid.keys`, by which monoid_quotient orders each coset) broken,
    and names the one class by z2[0]."""

    def broken(*args):
        raise AssertionError("formed a coset")

    monkeypatch.setattr(Grid, "keys", broken)
    exts = desk_extensions(request)
    for ext in exts:
        g = compute_h2(ext)
        assert g.order == 1 and g.representatives.tobytes() == g.z2[:1].tobytes()
    with pytest.raises(AssertionError, match="formed a coset"):
        monoid_quotient(exts[0])
