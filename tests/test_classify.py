"""Census sweeps, monoid quotients, Brauer classes, refinement comparison."""

import numpy as np
import pytest

from corings.amitsur import TwistElement, compute_h2, unit_twist
from corings.classify import (
    brauer_class,
    classify_all,
    compare_via_refinement,
    is_almost_invertible,
    is_cosickle,
    monoid_quotient,
)
from corings.coring import canonical_coring, twisted_coring
from corings.rings import RingTooLarge
from tests.conftest import counit_solution


def test_cosickle_basics(f4_over_f2):
    ext = f4_over_f2
    t3 = ext.tensor_power(3)
    assert is_cosickle(ext, t3.one_vec())
    assert is_cosickle(ext, np.zeros(t3.rank, dtype=np.int64))  # degenerate
    assert is_almost_invertible(ext, t3.one_vec())
    assert not is_almost_invertible(ext, np.zeros(t3.rank, dtype=np.int64))


def test_classify_f2x2(f2x2_over_f2):
    census = classify_all(f2x2_over_f2)
    c = census.counts
    assert c["elements"] == 256
    assert c["unit_cocycles"] == 1  # only the unit twist
    assert census.counit_solvable is not None
    # Azumaya = unit cocycles; counital = almost invertible; coassoc = cosickle
    assert (census.is_coassociative == census.is_cosickle).all()
    assert (census.admits_counit == census.is_almost_invertible).all()
    assert (census.is_cocycle == (census.is_unit & census.is_cosickle)).all()


def test_classify_chain_has_no_violations(f2x2_over_f2, f4_over_f2):
    for ext in (f2x2_over_f2, f4_over_f2):
        census = classify_all(ext)
        assert (~census.is_cocycle | census.is_almost_invertible).all()
        assert (~census.is_almost_invertible | census.is_cosickle).all()
        assert (~census.is_cosickle | census.is_coassociative).all()


def test_classify_f4(f4_over_f2):
    census = classify_all(f4_over_f2)
    c = census.counts
    assert c["elements"] == 256 and c["units"] == 81 and c["unit_cocycles"] == 3


def test_census_matches_coring_checks(f2x2_over_f2):
    """Census tags agree with the per-coring axioms, element by element."""
    from corings.coring import check_coassociative, is_azumaya

    ext = f2x2_over_f2
    census = classify_all(ext)
    for row, coc, alm, az in zip(
        census.elements, census.is_coassociative, census.is_almost_invertible, census.is_cocycle
    ):
        c = twisted_coring(ext, row)
        assert check_coassociative(c) == coc
        assert (c.counit is not None) == alm
        assert is_azumaya(c) == az


def test_counit_solution_is_norm_inverse_on_cocycles(f4_over_f2):
    ext = f4_over_f2
    tw = unit_twist(ext)
    v = counit_solution(ext, tw.u.coeffs)
    assert v is not None and (v == ext.top.one).all()


def test_classify_cap(gr42_over_z4):
    with pytest.raises(RingTooLarge):
        classify_all(gr42_over_z4, cap=100)


def test_monoid_quotient_f2x2(f2x2_over_f2):
    q = monoid_quotient(f2x2_over_f2, "full")
    assert len(q.b2) == 1  # sole unit of S^⊗2
    census = classify_all(f2x2_over_f2, counit_oracle=False)
    assert q.counts["orbits"] == int(census.is_cosickle.sum())  # identity partition
    assert all(s == 1 for s in q.orbit_sizes)


def test_monoid_quotient_f4(f4_over_f2):
    q_full = monoid_quotient(f4_over_f2, "full")
    q_almost = monoid_quotient(f4_over_f2, "almost")
    # unit part is a single orbit: H^2 is trivial
    assert q_full.counts["invertible_orbits"] == 1
    assert q_almost.counts["invertible_orbits"] == 1
    # orbit of 1 is exactly B^2
    one = f4_over_f2.tensor_power(3).one_vec()
    h2 = compute_h2(f4_over_f2)
    i = [tuple(map(int, r)) for r in q_full.representatives].index(
        min(tuple(map(int, b)) for b in h2.b2)
    )
    assert q_full.orbit_sizes[i] == len(h2.b2)


def test_monoid_invertible_subcensus_equals_h2(f4_over_f2, f2x2_over_f2):
    for ext in (f4_over_f2, f2x2_over_f2):
        q = monoid_quotient(ext, "almost")
        h2 = compute_h2(ext)
        inv_reps = {tuple(map(int, r)) for r, ok in zip(q.representatives, q.invertible) if ok}
        assert inv_reps == {tuple(map(int, r)) for r in h2.representatives}


def test_brauer_class_group_laws(f4_over_f2):
    ext = f4_over_f2
    from corings.amitsur import cocycle_mask
    from corings.rings import enumerate_units

    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    rows = units3[cocycle_mask(ext, units3)]
    classes = [brauer_class(twisted_coring(ext, r)) for r in rows]
    ident = brauer_class(canonical_coring(ext))
    assert ident.is_identity()
    for x in classes:
        assert x == ident  # H^2 trivial: every class is the identity
        assert (x * x.inverse()).is_identity()
        for y in classes:
            assert x * y == y * x
            for z in classes:
                assert (x * y) * z == x * (y * z)


def test_brauer_class_representative_is_normalized(gr42_over_z4):
    ext = gr42_over_z4
    from corings.amitsur import cocycle_mask
    from corings.rings import enumerate_units

    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    rows = units3[cocycle_mask(ext, units3)]
    cls = brauer_class(twisted_coring(ext, rows[-1]))
    assert TwistElement(ext, np.array(cls.rep)).norm.is_one()


def test_brauer_class_cap_is_checked_with_cached_b2():
    """A cached B^2 must not let a call under a small cap through."""
    from corings.amitsur import b2_rows
    from corings.classify import BrauerClass
    from corings.extensions import Extension
    from corings.rings import RingHom, make_quotient_ring, zmod_ring

    f2, f4 = zmod_ring(2), make_quotient_ring(2, [1, 1, 1])
    ext = Extension(f2, f4, RingHom(f2, f4, np.outer(f4.one, f2.one)), np.eye(2, dtype=np.int64))
    tw = unit_twist(ext)
    with pytest.raises(RingTooLarge):  # cold: B^2 not built yet
        BrauerClass.of_twist(tw, cap=1)
    b2_rows(ext)
    with pytest.raises(RingTooLarge):  # warm: B^2 cached on the extension
        BrauerClass.of_twist(tw, cap=1)
    assert BrauerClass.of_twist(tw).is_identity()


def test_brauer_class_rejects_non_azumaya(f2x2_over_f2):
    with pytest.raises(ValueError):
        brauer_class(twisted_coring(f2x2_over_f2, np.zeros(8, dtype=np.int64)))


def test_compare_via_refinement_reflexive(f4_over_f2):
    c = canonical_coring(f4_over_f2)
    res = compare_via_refinement(c, c)
    assert res.equivalent
    assert (res.witness == res.refined_ext.tensor_power(2).one_vec()).all()


def test_compare_f4_cocycles_with_split_trivial(f4_over_f2, f2x2_over_f2):
    """Every F4/F2 cocycle class is trivial, so it matches the canonical
    coring over F2xF2/F2 after refinement."""
    from corings.amitsur import cocycle_mask
    from corings.rings import enumerate_units

    ext = f4_over_f2
    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    rows = units3[cocycle_mask(ext, units3)]
    d1 = canonical_coring(f2x2_over_f2)
    for r in rows:
        res = compare_via_refinement(twisted_coring(ext, r), d1)
        assert res.equivalent and res.witness is not None


def test_compare_symmetry_and_transitivity(f4_over_f2, f2x2_over_f2):
    from corings.amitsur import cocycle_mask
    from corings.rings import enumerate_units

    ext = f4_over_f2
    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    rows = units3[cocycle_mask(ext, units3)]
    pool = [twisted_coring(ext, r) for r in rows[:2]] + [canonical_coring(f2x2_over_f2)]
    verdict = {}
    for i, x in enumerate(pool):
        for j, y in enumerate(pool):
            verdict[i, j] = compare_via_refinement(x, y).equivalent
    for i in range(len(pool)):
        assert verdict[i, i]
        for j in range(len(pool)):
            assert verdict[i, j] == verdict[j, i]
            for k in range(len(pool)):
                if verdict[i, j] and verdict[j, k]:
                    assert verdict[i, k]


def test_classify_deterministic_across_jobs(f2x2_over_f2):
    a = classify_all(f2x2_over_f2, jobs=1, counit_oracle=False)
    b = classify_all(f2x2_over_f2, jobs=4, counit_oracle=False)
    assert (a.elements == b.elements).all()
    for field_a, field_b in (
        (a.is_unit, b.is_unit),
        (a.is_cocycle, b.is_cocycle),
        (a.is_cosickle, b.is_cosickle),
        (a.is_almost_invertible, b.is_almost_invertible),
        (a.is_coassociative, b.is_coassociative),
    ):
        assert (field_a == field_b).all()
