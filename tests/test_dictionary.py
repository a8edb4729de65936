"""The dictionary between unit 2-cocycles, Azumaya corings and Azumaya algebras,
row by row over every Z^2 row of F4/F2, GF(9)/F3, GR(4,2)/Z4 and (F4⊗F4)/F4.

For each cocycle u: the twisted coring is coassociative, counital and
Azumaya and gives u back; both of its dual algebras are Azumaya; gamma is a
unital algebra isomorphism onto the descent algebra A(u), of rank d^2; and
the base change of u is split by its own witness.  gamma's injectivity and
image verdicts, read from one Howell form of gamma^T, are also checked
against the route they replaced: `zmod.kernel_right` of gamma and the
Howell forms of both matrices (`same_row_span`).
"""

import numpy as np
import pytest

from corings import zmod
from corings.algebras import DescentAlgebra, gamma_map, is_azumaya_algebra, left_dual_algebra, right_dual_algebra
from corings.amitsur import base_change_witness, compute_h2
from corings.classify import classify_all
from corings.coring import check_coassociative, check_counit, is_azumaya, recover_twist, twisted_coring
from corings.extensions import amitsur_rebase
from tests.conftest import same_row_span

FIXTURES = ["f4_over_f2", "gf9_over_f3", "gr42_over_z4", "rebased"]


def extension(request, name):
    if name == "rebased":
        return amitsur_rebase(request.getfixturevalue("f4_over_f2"))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", FIXTURES)
def test_every_cocycle_goes_through_the_dictionary(request, name):
    ext = extension(request, name)
    z2 = compute_h2(ext).z2
    assert len(z2)
    for u in z2:
        c = twisted_coring(ext, u)
        assert check_coassociative(c) and check_counit(c) and is_azumaya(c)
        assert (recover_twist(c).u.coeffs == u).all()
        for dual in (right_dual_algebra(c), left_dual_algebra(c)):
            assert is_azumaya_algebra(dual.algebra())
        gv = gamma_map(c)
        assert gv.ok and gv.descent_rank == ext.degree**2
        assert base_change_witness(c.twist).verified
        # the former route to the injectivity and image verdicts
        assert gv.injective == (zmod.kernel_right(gv.gamma, ext.n).size == 0)
        basis = DescentAlgebra(ext, c.twist).solution_basis
        assert gv.image_is_descent_algebra == same_row_span(gv.gamma.T, basis, ext.n)


@pytest.mark.parametrize("name", FIXTURES[:3])
def test_a_non_unit_cosickle_is_not_azumaya(request, name):
    """The first nonzero cosickle of the census that is not a unit twists a
    coassociative coring whose tilde-Delta is not bijective."""
    ext = extension(request, name)
    census = classify_all(ext)
    mask = census.is_cosickle & ~census.is_unit
    mask[0] = False  # u = 0
    u = census.grid.rows(mask)[0]
    c = twisted_coring(ext, u)
    assert np.any(u) and check_coassociative(c) and not is_azumaya(c)
