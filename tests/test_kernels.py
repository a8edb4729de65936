"""The exact BLAS kernels and the residue-field unit test against the
int64 einsum and per-element elimination routes they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import zmod
from corings.amitsur import cocycle_mask
from corings.classify import _coassoc_difference_tensor, classify_all
from corings.rings import all_elements_array, make_product_ring, make_quotient_ring, zmod_ring

MODULI = [2, 3, 4, 6, 8, 9, 12]


def elimination_unit_mask(ring, rows):
    """Units as nonsingular multiplication matrices modulo every p | n."""
    mulmats = np.einsum("bi,ijk->bkj", rows, ring.struct.astype(np.int64)) % ring.n
    mask = np.ones(len(rows), dtype=bool)
    for p in zmod.prime_factors(ring.n):
        mask &= zmod.batch_nonsingular(mulmats, p)
    return mask


def einsum_cosickle_mask(ext, rows):
    """u_1 u_3 == u_2 u_4 from the four faces and the S^⊗4 structure tensor."""
    c4 = ext.tensor_power(4).ring.struct.astype(np.int64)
    f = [(rows @ ext.face_map(3, i).matrix.T) % ext.n for i in range(1, 5)]
    lhs = np.einsum("bi,bj,ijk->bk", f[0], f[2], c4) % ext.n
    rhs = np.einsum("bi,bj,ijk->bk", f[1], f[3], c4) % ext.n
    return (lhs == rhs).all(axis=1)


def einsum_coassoc_mask(ext, rows):
    d = _coassoc_difference_tensor(ext)
    return ~(np.einsum("bi,bj,ijO->bO", rows, rows, d) % ext.n).any(axis=1)


# -- residue-field unit oracle ---------------------------------------------------


def monic(n, deg):
    return st.lists(st.integers(0, n - 1), min_size=deg, max_size=deg).map(lambda c: c + [1])


def quotient_ring(n, max_deg):
    return st.integers(1, max_deg).flatmap(lambda d: monic(n, d)).map(lambda f: make_quotient_ring(n, f))


def finite_ring(n):
    product = st.tuples(quotient_ring(n, 2), quotient_ring(n, 2)).map(lambda ab: make_product_ring(*ab))
    return st.one_of(quotient_ring(n, 3), product)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(MODULI).flatmap(finite_ring))
def test_residue_field_units_match_elimination(ring):
    rows = all_elements_array(ring)
    mask = zmod.batch_is_unit(rows, ring.residue_fields)
    assert (mask == elimination_unit_mask(ring, rows)).all()


def test_residue_fields_of_small_rings():
    """One residue field per maximal ideal, of the right degree over F_p."""
    gf9 = make_quotient_ring(3, [1, 0, 1])
    assert [f[0] for f in gf9.residue_fields.fields] == [3]
    assert gf9.residue_fields.proj.shape == (2, 2)
    z12 = zmod_ring(12)  # Z/12 = Z/4 x Z/3: residue fields F2 and F3
    assert [f[0] for f in z12.residue_fields.fields] == [2, 3]
    split = make_quotient_ring(2, [0, 1, 1])  # F2 x F2
    assert len(split.residue_fields.fields) == 2


# -- matmul_mod and bilinear_mod -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, zmod.MAX_MODULUS),
    st.integers(1, 6),
    st.integers(0, 40),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_matmul_mod_matches_einsum(n, rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-n + 1, n, size=(rows, inner))
    b = rng.integers(0, n, size=(inner, cols))
    assert (zmod.matmul_mod(a, b, n) == np.einsum("ik,kj->ij", a, b) % n).all()


def test_matmul_mod_blocks_large_moduli():
    """(n-1)^2 near 2^52 leaves one term per exact float64 block."""
    n = 2**26 - 5
    rng = np.random.default_rng(7)
    a = rng.integers(0, n, size=(4, 37))
    b = rng.integers(0, n, size=(37, 3))
    a[0] = n - 1
    b[:, 0] = n - 1
    want = np.einsum("ik,kj->ij", a, b) % n  # each product < 2^52, 37 of them < 2^63
    assert (zmod.matmul_mod(a, b, n) == want).all()
    with pytest.raises(ValueError):
        zmod.matmul_mod(a, b, 2**27)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, zmod.MAX_MODULUS),
    st.integers(0, 5),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_bilinear_mod_matches_einsum(n, batch, r1, r2, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, n, size=(batch, r1))
    y = rng.integers(0, n, size=(batch, r2))
    form = rng.integers(0, n, size=(r1, r2, k))
    want = np.einsum("bi,bj,ijk->bk", x, y, form) % n
    got = zmod.bilinear_mod(x, y, form, n)
    assert got.shape == (batch, k) and (got == want).all()


def test_bilinear_mod_blocks_contraction_and_rows():
    """At the largest modulus a 48 x 48 outer product exceeds one exact
    float64 block, and 1000 rows span several row blocks."""
    n = zmod.MAX_MODULUS
    rng = np.random.default_rng(11)
    x = rng.integers(0, n, size=(1000, 48))
    y = rng.integers(0, n, size=(1000, 48))
    form = rng.integers(0, n, size=(48, 48, 3))
    x[0] = y[0] = n - 1
    form[:, :, 0] = n - 1
    form[0, 0, 0] = n - 2  # row 0, column 0: an odd sum near 2304 (n-1)^3 > 2^53
    want = np.einsum("bi,bj,ijk->bk", x, y, form) % n  # each term < 2^42, fits int64
    assert (zmod.bilinear_mod(x, y, form, n) == want).all()


# -- census masks ------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture", ["f4_over_f2", "f2x2_over_f2", "z2sq_over_f2", "gr42_over_z4", "gf9_over_f3"]
)
def test_census_masks_match_einsum_routes(request, fixture):
    ext = request.getfixturevalue(fixture)
    census = classify_all(ext, counit_oracle=False)
    rows = census.elements
    assert (census.is_unit == elimination_unit_mask(ext.tensor_power(3).ring, rows)).all()
    cosickle = einsum_cosickle_mask(ext, rows)
    assert (census.is_cosickle == cosickle).all()
    assert (cocycle_mask(ext, rows) == cosickle).all()
    assert (census.is_coassociative == einsum_coassoc_mask(ext, rows)).all()
