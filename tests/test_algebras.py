"""Twisted endomorphism algebras, descent algebras, gamma, Azumaya checks."""

import numpy as np
import pytest

from corings import zmod
from corings.algebras import (
    DescentAlgebra,
    TwistedAlgebra,
    WitnessError,
    algebra_from_extension,
    descent_algebra,
    enveloping_matrix,
    gamma_map,
    identity_endo,
    is_azumaya_algebra,
    left_dual_algebra,
    right_dual_algebra,
    untwist_iso,
)
from corings.amitsur import TwistElement, cocycle_mask, delta1, unit_twist
from corings.coring import canonical_coring, twisted_coring
from corings.rings import enumerate_units


def cocycle_rows(ext):
    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    return units3[cocycle_mask(ext, units3)]


def endo_basis(ext):
    d, kr = ext.degree, ext.base.rank
    out = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d, kr), dtype=np.int64)
            e[i, j] = ext.base.one
            out.append(e)
    return out


def test_trivial_twist_right_product_is_composition(f4_over_f2):
    ext = f4_over_f2
    alg = right_dual_algebra(canonical_coring(ext))
    for phi in endo_basis(ext):
        for psi in endo_basis(ext):
            assert (alg.product(phi, psi) == ext.base.mul_einsum("ij_,jk_->ik_", phi, psi)).all()
    assert (alg.unit_endo() == identity_endo(ext)).all()


def test_trivial_twist_left_product_is_opposite(f4_over_f2):
    ext = f4_over_f2
    alg = left_dual_algebra(canonical_coring(ext))
    for phi in endo_basis(ext):
        for psi in endo_basis(ext):
            assert (alg.product(phi, psi) == ext.base.mul_einsum("ij_,jk_->ik_", psi, phi)).all()


def test_twisted_algebras_associative_and_unital(f4_over_f2, gr42_over_z4):
    for ext in (f4_over_f2, gr42_over_z4):
        rows = cocycle_rows(ext)
        for row in rows:
            for side in ("right", "left"):
                alg = TwistedAlgebra(ext, TwistElement(ext, row), side).algebra()
                alg.validate()  # associativity on all basis triples + unit law


def test_left_right_duals_are_opposite(f4_over_f2):
    ext = f4_over_f2
    for row in cocycle_rows(ext):
        c = twisted_coring(ext, row)
        r = right_dual_algebra(c).algebra()
        l = left_dual_algebra(c).algebra()
        assert (l.struct == r.struct.transpose(1, 0, 2, 3)).all()
        assert (l.one == r.one).all()


def test_unit_is_norm_inverse_multiplication(f4_over_f2):
    ext = f4_over_f2
    for row in cocycle_rows(ext):
        tw = TwistElement(ext, row)
        alg = TwistedAlgebra(ext, tw, "right")
        u = alg.unit_endo()
        for phi in endo_basis(ext):
            assert (alg.product(u, phi) == phi).all()
            assert (alg.product(phi, u) == phi).all()


def test_non_azumaya_coring_rejected(f2x2_over_f2):
    with pytest.raises(ValueError):
        right_dual_algebra(twisted_coring(f2x2_over_f2, np.zeros(8, dtype=np.int64)))


def test_descent_algebra_trivial_twist(f4_over_f2):
    """A(1) is 1 ⊗ End_R(S): x_2 = x_1 forces the first slot to be scalar."""
    ext = f4_over_f2
    alg = DescentAlgebra(ext, unit_twist(ext))
    assert alg.rank_over_base == 4
    assert len(alg.solution_basis) == 4
    # gamma(phi) = 1 ⊗ phi lands in it
    g = gamma_map(unit_twist(ext))
    assert g.ok
    for e in endo_basis(ext):
        vec = (g.gamma @ e.reshape(-1)) % 2
        assert alg.contains(vec)
    assert alg.contains(alg.unit_vec())


def test_descent_algebra_every_cocycle(f4_over_f2, gr42_over_z4):
    for ext in (f4_over_f2, gr42_over_z4):
        for row in cocycle_rows(ext):
            alg = DescentAlgebra(ext, TwistElement(ext, row))
            assert alg.rank_over_base == 4
            assert alg.contains(alg.unit_vec())


def test_gamma_is_isomorphism_everywhere(f4_over_f2, gr42_over_z4):
    for ext in (f4_over_f2, gr42_over_z4):
        for row in cocycle_rows(ext):
            g = gamma_map(TwistElement(ext, row))
            assert g.injective and g.image_is_descent_algebra
            assert g.multiplicative and g.unital and g.two_sided_inverse
            assert g.ok


def test_gamma_inverse_formula_for_trivial_twist(f4_over_f2):
    """v = 1: sum s_i ⊗ t_i* ⊗ t_i -> t_i* ⊗ s_i t_i."""
    ext = f4_over_f2
    g = gamma_map(unit_twist(ext))
    d = ext.degree
    # 1 ⊗ eps_ij maps back to eps_ij
    for e in endo_basis(ext):
        vec = (g.gamma @ e.reshape(-1)) % 2
        back = (g.gamma_inv @ vec) % 2
        assert (back == e.reshape(-1)).all()


def test_end_algebra_is_azumaya(f4_over_f2):
    ext = f4_over_f2
    for row in cocycle_rows(ext):
        alg = TwistedAlgebra(ext, TwistElement(ext, row), "right").algebra()
        env = enveloping_matrix(alg)
        assert env.shape == (16, 16)
        assert is_azumaya_algebra(alg)


def test_commutative_control_is_not_azumaya(f4_over_f2):
    """F4 as an F2-algebra: the enveloping map cannot be surjective."""
    alg = algebra_from_extension(f4_over_f2)
    alg.validate()
    assert alg.is_commutative()
    assert not is_azumaya_algebra(alg)


def test_untwist_iso(f4_over_f2):
    ext = f4_over_f2
    a = ext.top.basis_element(1).coeffs
    one = ext.top.one
    w = ext.tensor_power(2).embed_pure([a, one])
    u = delta1(ext, w)
    tw = TwistElement(ext, u)
    mat = untwist_iso(tw, w)  # raises if any verification fails
    assert zmod.is_invertible(mat, 2)
    # trivial case: w = 1, u = 1 gives the identity map
    mat1 = untwist_iso(unit_twist(ext), ext.tensor_power(2).one_vec())
    assert (mat1 == np.eye(mat1.shape[0], dtype=np.int64)).all()


def test_untwist_iso_rejects_bad_witness(f4_over_f2):
    ext = f4_over_f2
    a = ext.top.basis_element(1).coeffs
    one = ext.top.one
    w = ext.tensor_power(2).embed_pure([a, one])
    with pytest.raises(WitnessError):
        untwist_iso(unit_twist(ext), w)


def test_untwist_composes_with_coring_tensor(f4_over_f2, gr42_over_z4):
    """Theta_w ∘ Theta_w' = Theta_{w w'} for coboundary twists u, u'."""
    for ext in (f4_over_f2, gr42_over_z4):
        t2 = ext.tensor_power(2).ring
        t3 = ext.tensor_power(3).ring
        units2 = enumerate_units(t2, as_array=True)
        w1, w2 = units2[1], units2[min(3, len(units2) - 1)]
        u1, u2 = delta1(ext, w1), delta1(ext, w2)
        m1 = untwist_iso(TwistElement(ext, u1), w1)
        m2 = untwist_iso(TwistElement(ext, u2), w2)
        w12 = t2.mul_vec(w1, w2)
        m12 = untwist_iso(TwistElement(ext, t3.mul_vec(u1, u2)), w12)
        assert ((m1 @ m2) % ext.n == m12).all()


def test_full_stack_over_rank_two_base(f4_over_f2):
    """Exercise every layer over a base ring that is not Z/nZ itself.

    The rebased extension (S⊗S)/S has base F4, of rank 2 over Z/2, so the
    R-coefficient arithmetic (structure tensors, merges, duals, descent
    algebras, gamma) runs with a genuinely non-trivial base."""
    from corings.amitsur import check_norm_identities, compute_h2, is_two_cocycle
    from corings.classify import classify_all
    from corings.coring import is_azumaya, twisted_coring
    from corings.extensions import amitsur_rebase, rebase_pushforward

    ext = f4_over_f2
    reb = amitsur_rebase(ext)
    assert reb.base.rank == 2
    # the pushed coboundary twist is a cocycle over the new base
    a = ext.top.basis_element(1).coeffs
    u = ext.tensor_power(3).embed_pure([ext.top.one, a, ext.top.one])
    push = rebase_pushforward(ext, ext.eta, 3)
    tw = TwistElement(reb, (push @ u) % 2)
    assert is_two_cocycle(tw)
    assert check_norm_identities(tw)
    assert is_azumaya(twisted_coring(reb, tw))
    # H^2 of (S⊗S)/S is trivial (the extension splits via multiplication)
    g = compute_h2(reb)
    assert g.order == 1
    # census over the 2^16-element S^⊗3 with the direct-coassociativity oracle
    census = classify_all(reb, counit_oracle=False)
    assert (census.is_coassociative == census.is_cosickle).all()
    assert census.counts["unit_cocycles"] == len(g.z2)
    # gamma over the rank-2 base
    gv = gamma_map(tw)
    assert gv.ok and gv.descent_rank == 4
    # twisted algebra over the rank-2 base is associative and Azumaya
    alg = TwistedAlgebra(reb, tw, "right").algebra()
    alg.validate()
    assert is_azumaya_algebra(alg)
