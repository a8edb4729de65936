"""The batched B^2 and coset engine against the per-element loops it replaced.

The reference functions below are the element-at-a-time definitions: B^2 as
the set of delta_1(v) over units v of S^⊗2, and each coset u·B^2 as the set
of products u·b.  Every result of the engine must equal them exactly.
"""

import numpy as np
import pytest

from corings.amitsur import TwistElement, b2_rows, compute_h2, delta1
from corings.classify import BrauerClass, classify_all, monoid_quotient
from corings.rings import enumerate_units
from tests.conftest import class_of

FIXTURES = ["f4_over_f2", "f2x2_over_f2", "z2sq_over_f2", "gr42_over_z4", "gf9_over_f3"]


def key(row):
    return tuple(int(v) for v in row)


def reference_b2(ext):
    units2 = enumerate_units(ext.tensor_power(2).ring, as_array=True)
    return sorted({key(delta1(ext, v)) for v in units2})


def reference_coset(ext, u, b2):
    t3 = ext.tensor_power(3).ring
    return sorted({key(t3.mul_vec(u, b)) for b in b2})


def reference_representatives(ext, z2, b2):
    seen, reps = set(), []
    for row in z2:
        if key(row) in seen:
            continue
        members = reference_coset(ext, row, b2)
        seen.update(members)
        reps.append(members[0])
    return sorted(reps)


def reference_quotient(ext, which, b2):
    census = classify_all(ext, counit_oracle=False)
    mask = census.is_cosickle if which == "full" else census.is_almost_invertible
    unit = {key(row): bool(u) for row, u in zip(census.elements, census.is_unit)}
    seen, orbits = set(), []
    for row in census.elements[mask]:
        if key(row) in seen:
            continue
        orbit = reference_coset(ext, row, b2)
        seen.update(orbit)
        orbits.append((orbit[0], len(orbit), unit[orbit[0]]))
    return sorted(orbits)


def reference_class(ext, u, b2):
    coll = ext.collapse_map(3).matrix
    for member in reference_coset(ext, u, b2):
        if ((coll @ np.array(member)) % ext.n == ext.top.one).all():
            return member
    raise AssertionError("coset has no normalized member")


@pytest.fixture(params=FIXTURES)
def ext(request):
    return request.getfixturevalue(request.param)


def test_b2_rows_is_the_set_of_coboundaries(ext):
    assert [key(row) for row in b2_rows(ext)] == reference_b2(ext)


def test_h2_representatives_and_classes(ext):
    g = compute_h2(ext)
    b2 = [np.array(row) for row in reference_b2(ext)]
    assert [key(row) for row in g.representatives] == reference_representatives(ext, g.z2, b2)
    for row in g.z2:
        coset = reference_coset(ext, row, b2)
        assert class_of(g, row) == coset[0]
        assert BrauerClass.of_twist(TwistElement(ext, row)).rep == reference_class(ext, row, b2)


@pytest.mark.parametrize("which", ["full", "almost"])
def test_monoid_quotient(ext, which):
    q = monoid_quotient(ext, which)
    b2 = [np.array(row) for row in reference_b2(ext)]
    got = [(key(r), s, bool(i)) for r, s, i in zip(q.representatives, q.orbit_sizes, q.invertible)]
    assert got == reference_quotient(ext, which, b2)
