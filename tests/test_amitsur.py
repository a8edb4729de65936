"""Coboundaries, cocycles, norms, normalization, H^2, witnesses."""

import numpy as np
import pytest

from corings import amitsur
from corings.amitsur import (
    TwistElement,
    base_change_witness,
    check_norm_identities,
    cohomologous,
    compute_h2,
    coboundary,
    delta1,
    delta2,
    is_two_cocycle,
    normalize,
    tensor_cocycles,
    unit_twist,
)
from corings.rings import enumerate_units, try_invert
from tests.conftest import class_of, desk_extensions


def embed3(ext, x, y, z):
    return ext.tensor_power(3).embed_pure([x, y, z])


def test_delta1_of_unit_is_unit_cocycle(f4_over_f2):
    ext = f4_over_f2
    t2 = ext.tensor_power(2)
    one = ext.top.one
    assert (delta1(ext, t2.one_vec()) == ext.tensor_power(3).one_vec()).all()


def test_delta1_of_a_tensor_one(f4_over_f2):
    """delta_1(a⊗1) = 1⊗a⊗1 over F4/F2."""
    ext = f4_over_f2
    a = ext.top.basis_element(1).coeffs
    one = ext.top.one
    v = ext.tensor_power(2).embed_pure([a, one])
    assert (delta1(ext, v) == embed3(ext, one, a, one)).all()


def test_delta_composes_to_one(f4_over_f2, gr42_over_z4):
    """delta_2(delta_1(v)) = 1 for every unit v of S^⊗2."""
    for ext in (f4_over_f2, gr42_over_z4):
        t2 = ext.tensor_power(2)
        t4 = ext.tensor_power(4)
        for v in enumerate_units(t2.ring, as_array=True):
            assert (delta2(ext, delta1(ext, v)) == t4.ring.one).all()


def test_coboundary_rejects_non_units(f2x2_over_f2):
    ext = f2x2_over_f2
    zero = np.zeros(ext.tensor_power(2).rank, dtype=np.int64)
    with pytest.raises(amitsur.NotAUnitError):
        coboundary(ext, zero, 2)


def test_cocycle_counts_f4(f4_over_f2):
    """Exactly 3 of the 81 units of F4^⊗3 are 2-cocycles."""
    ext = f4_over_f2
    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    assert len(units3) == 81
    mask = amitsur.cocycle_mask(ext, units3)
    assert mask.sum() == 3


def test_unit_twist_is_cocycle(f4_over_f2):
    tw = unit_twist(f4_over_f2)
    assert is_two_cocycle(tw)
    assert tw.is_almost_invertible and tw.is_cosickle


def test_coboundaries_are_cocycles(f4_over_f2):
    ext = f4_over_f2
    a = ext.top.basis_element(1).coeffs
    one = ext.top.one
    u = TwistElement(ext, embed3(ext, one, a, one))
    assert is_two_cocycle(u)


def test_non_unit_is_not_cocycle(f2x2_over_f2):
    ext = f2x2_over_f2
    zero = TwistElement(ext, np.zeros(ext.tensor_power(3).rank, dtype=np.int64))
    assert not is_two_cocycle(zero)
    assert zero.is_cosickle  # both sides vanish


def test_norms(f4_over_f2):
    ext = f4_over_f2
    a = ext.top.basis_element(1).coeffs
    one = ext.top.one
    assert unit_twist(ext).norm.is_one()
    u = TwistElement(ext, embed3(ext, one, a, one))
    assert (u.norm.coeffs == a).all()
    # multiplicativity of the norm
    t3 = ext.tensor_power(3).ring
    v = TwistElement(ext, embed3(ext, a, one, a))
    uv = TwistElement(ext, t3.mul_vec(u.u.coeffs, v.u.coeffs))
    assert uv.norm == u.norm * v.norm


def all_cocycles(ext):
    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    mask = amitsur.cocycle_mask(ext, units3)
    return units3[mask]


def test_norm_identities_all_cocycles(f4_over_f2, gr42_over_z4):
    for ext in (f4_over_f2, gr42_over_z4):
        for row in all_cocycles(ext):
            assert check_norm_identities(TwistElement(ext, row))


def test_norm_of_inverse(gr42_over_z4):
    ext = gr42_over_z4
    for row in all_cocycles(ext):
        tw = TwistElement(ext, row)
        inv = TwistElement(ext, tw.inverse.coeffs)
        assert is_two_cocycle(inv)
        assert inv.norm == try_invert(tw.norm)


def test_normalize(f4_over_f2):
    ext = f4_over_f2
    a = ext.top.basis_element(1).coeffs
    one = ext.top.one
    u = TwistElement(ext, embed3(ext, one, a, one))
    u2, w = normalize(u)
    assert (u2.u.coeffs == ext.tensor_power(3).one_vec()).all()
    # witness really exhibits the coboundary relation
    t3 = ext.tensor_power(3).ring
    assert (t3.mul_vec(u.u.coeffs, delta1(ext, w)) == u2.u.coeffs).all()


def test_normalize_exhaustive(f4_over_f2, gr42_over_z4):
    for ext in (f4_over_f2, gr42_over_z4):
        t3 = ext.tensor_power(3).ring
        for row in all_cocycles(ext):
            tw = TwistElement(ext, row)
            tw2, w = normalize(tw)
            assert is_two_cocycle(tw2)
            assert tw2.norm.is_one()
            assert (t3.mul_vec(row, delta1(ext, w)) == tw2.u.coeffs).all()
            # normalizing a normalized cocycle is the identity
            tw3, _ = normalize(tw2)
            assert tw3.u == tw2.u


def test_compute_h2_f4(f4_over_f2):
    g = compute_h2(f4_over_f2)
    assert len(g.z2) == 3 and len(g.b2) == 3 and g.order == 1
    # B^2 and Z^2 coincide here; both closed under products and inverses
    t3 = f4_over_f2.tensor_power(3).ring
    zset = {tuple(map(int, r)) for r in g.z2}
    for x in g.z2:
        for y in g.z2:
            assert tuple(map(int, t3.mul_vec(x, y))) in zset
        tw = TwistElement(f4_over_f2, x)
        assert tuple(map(int, tw.inverse.coeffs)) in zset


def test_compute_h2_f2x2(f2x2_over_f2):
    g = compute_h2(f2x2_over_f2)
    assert len(g.z2) == 1 and len(g.b2) == 1 and g.order == 1


def test_class_of_maps_cocycles_to_their_representatives(gr42_over_z4):
    g = compute_h2(gr42_over_z4)
    reps = {tuple(map(int, r)) for r in g.representatives}
    for row in g.z2:
        assert class_of(g, row) in reps


def test_compute_h2_split_extensions(z2sq_over_f2, f2x2_over_f2):
    """A section S -> R contracts the complex: H^2 must be trivial."""
    for ext in (z2sq_over_f2, f2x2_over_f2):
        assert compute_h2(ext).order == 1


def test_compute_h2_gr42(gr42_over_z4):
    g = compute_h2(gr42_over_z4)
    assert len(g.b2) == len(g.z2)
    assert g.order == 1


def test_cohomologous(f4_over_f2):
    ext = f4_over_f2
    a = ext.top.basis_element(1).coeffs
    one = ext.top.one
    u = TwistElement(ext, embed3(ext, one, a, one))
    triv = unit_twist(ext)
    w = cohomologous(u, triv)
    assert w is not None
    t3 = ext.tensor_power(3).ring
    assert (t3.mul_vec(triv.u.coeffs, delta1(ext, w)) == u.u.coeffs).all()
    # expected canonical witness a⊗1
    assert tuple(map(int, w)) == tuple(map(int, ext.tensor_power(2).embed_pure([a, one])))
    # reflexive case gives the identity witness
    w_self = cohomologous(u, u)
    assert (w_self == ext.tensor_power(2).one_vec()).all()


def test_cohomologous_never_absent_over_f4(f4_over_f2):
    ext = f4_over_f2
    rows = all_cocycles(ext)
    for x in rows:
        for y in rows:
            assert cohomologous(TwistElement(ext, x), TwistElement(ext, y)) is not None


def test_cohomologous_witness_on_every_pair_of_z2_rows(request):
    """u = v·delta_1(w) for the witness w of every ordered pair (u, v) of rows
    of Z^2, over the desk fixtures and (F4⊗F4)/F4: every cocycle is
    cohomologous to every other, which is what lets `BrauerClass.of_twist`
    name each class by B^2 membership."""
    for ext in desk_extensions(request):
        t3 = ext.tensor_power(3).ring
        twists = [TwistElement(ext, row) for row in compute_h2(ext).z2]
        for u in twists:
            for v in twists:
                w = cohomologous(u, v)
                assert w is not None and (t3.mul_vec(v.u.coeffs, delta1(ext, w)) == u.u.coeffs).all()


def test_tensor_cocycles(f4_over_f2):
    ext = f4_over_f2
    rows = all_cocycles(ext)
    big = None
    for x in rows:
        for y in rows:
            big, tw = tensor_cocycles(TwistElement(ext, x), TwistElement(ext, y))
            assert is_two_cocycle(tw)
    # u ⊗ u^{-1} is cohomologous to 1 over (S⊗S)/R
    u = TwistElement(ext, rows[1])
    big, tw = tensor_cocycles(u, TwistElement(ext, u.inverse.coeffs))
    w = cohomologous(tw, unit_twist(big), cap=1 << 17)
    assert w is not None


def test_base_change_witness(f4_over_f2, gr42_over_z4):
    for ext in (f4_over_f2, gr42_over_z4):
        for row in all_cocycles(ext):
            bc = base_change_witness(TwistElement(ext, row))
            assert bc.verified


def test_base_change_witness_rejects_non_cocycles(f4_over_f2):
    ext = f4_over_f2
    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    mask = amitsur.cocycle_mask(ext, units3)
    non = units3[~mask]
    assert len(non) == 78
    with pytest.raises(amitsur.NotACocycleError):
        base_change_witness(TwistElement(ext, non[0]))


def test_delta_zero_and_composition_at_level_one(f4_over_f2, gr42_over_z4):
    """delta_0(s) = (1⊗s)(s⊗1)^{-1} and delta_1 ∘ delta_0 = 1 on all units."""
    for ext in (f4_over_f2, gr42_over_z4):
        t2, t3 = ext.tensor_power(2), ext.tensor_power(3)
        for s in enumerate_units(ext.top):
            d0 = coboundary(ext, s.coeffs, 1)
            inv = try_invert(s)
            expected = t2.ring.mul_vec(
                t2.embed_pure([ext.top.one, s.coeffs]), t2.embed_pure([inv.coeffs, ext.top.one])
            )
            assert (d0 == expected).all()
            assert (delta1(ext, d0) == t3.one_vec()).all()


def test_cosickle_form_is_cached_read_only(gr42_over_z4):
    q = amitsur.cosickle_form(gr42_over_z4)
    assert amitsur.cosickle_form(gr42_over_z4) is q
    assert not q.flags.writeable
    with pytest.raises(ValueError):
        q[0, 0, 0] = 1
