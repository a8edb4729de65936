"""The grid sweep against the chunked routes it replaced.

The references below are the element-at-a-time sweeps: coefficient rows
built block by block from the base-n digits of each index (`coeff_block`),
units by `batch_is_unit` on each block, quadratic forms by `bilinear_mod`
on each block, and the witness search over lex blocks of S^⊗2.  Every grid
mask and every list of rows must equal them exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import zmod
from corings.algebras import DescentAlgebra
from corings.amitsur import TwistElement, _witness_search, cocycle_mask, compute_h2, cosickle_form
from corings.classify import _coassoc_difference_tensor, classify_all
from corings.rings import (
    Grid,
    RingTooLarge,
    all_elements_array,
    enumerate_units,
    make_product_ring,
    make_quotient_ring,
    zmod_ring,
)
from tests.conftest import desk_extensions, simple_extension
from tests.test_kernels import MODULI, quotient_ring

CHUNK = 1 << 12


def coeff_block(ring, start, stop):
    """Rows for element indices [start, stop): base-n digits, most significant first."""
    idx = np.arange(start, stop, dtype=np.int64)
    k = ring.rank
    out = np.empty((len(idx), k), dtype=np.int64)
    for j in range(k):
        out[:, j] = (idx // (ring.n ** (k - 1 - j))) % ring.n
    return out


def reference_elements(ring):
    return coeff_block(ring, 0, ring.size)


def reference_units(ring):
    rows = []
    for start in range(0, ring.size, CHUNK):
        block = coeff_block(ring, start, min(start + CHUNK, ring.size))
        rows.append(block[zmod.batch_is_unit(block, ring.residue_fields)])
    return np.vstack(rows)


def reference_zero_mask(rows, form, n):
    return np.concatenate(
        [
            ~zmod.bilinear_mod(rows[s : s + CHUNK], rows[s : s + CHUNK], form, n).any(axis=1)
            for s in range(0, len(rows), CHUNK)
        ]
    )


def reference_census(ext):
    """Unit, cosickle, coassociative and almost-invertible masks, chunk by chunk."""
    t3 = ext.tensor_power(3).ring
    residue2 = ext.tensor_power(2).ring.residue_fields
    rows = reference_elements(t3)
    units = zmod.batch_is_unit(rows, t3.residue_fields)
    k3 = t3.rank
    forms = [
        zmod.column_basis(f.reshape(k3 * k3, -1), ext.n).reshape(k3, k3, -1)
        for f in (cosickle_form(ext), _coassoc_difference_tensor(ext))
    ]
    cosickle, coassoc = (reference_zero_mask(rows, f, ext.n) for f in forms)
    both = np.ones(len(rows), dtype=bool)
    for first in (True, False):
        merged = zmod.matmul_mod(rows, ext.merge_map(3, first=first).matrix.T, ext.n)
        both &= zmod.batch_is_unit(merged, residue2)
    return units, cosickle, coassoc, cosickle & both


def reference_witness(ext, u, v):
    t2 = ext.tensor_power(2).ring
    t3 = ext.tensor_power(3).ring
    h1, h2, h3 = (ext.face_map(2, i).matrix.T for i in (1, 2, 3))
    mu_u, mu_v = t3.mulmat(u).T, t3.mulmat(v).T
    for start in range(0, t2.size, 1 << 9):
        block = coeff_block(t2, start, min(start + (1 << 9), t2.size))
        w = block[zmod.batch_is_unit(block, t2.residue_fields)]
        lhs = zmod.matmul_mod(zmod.matmul_mod(w, h2, ext.n), mu_u, ext.n)
        w13 = t3.mul_rows(zmod.matmul_mod(w, h1, ext.n), zmod.matmul_mod(w, h3, ext.n))
        hits = (lhs == zmod.matmul_mod(w13, mu_v, ext.n)).all(axis=1)
        if hits.any():
            return w[int(np.argmax(hits))]
    return None


# -- rings ----------------------------------------------------------------------


def small_ring(n):
    """Rank 1 to 5 (odd ranks and an empty high half included), at most 2^15 elements."""
    product = st.tuples(quotient_ring(n, 3), quotient_ring(n, 2)).map(lambda ab: make_product_ring(*ab))
    return st.one_of(st.just(zmod_ring(n)), quotient_ring(n, 4), product).filter(lambda r: r.size <= 1 << 15)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(MODULI).flatmap(small_ring))
def test_grid_units_and_elements_match_chunked_routes(ring):
    assert (all_elements_array(ring) == reference_elements(ring)).all()
    assert (enumerate_units(ring, as_array=True) == reference_units(ring)).all()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(MODULI),
    st.integers(1, 5),
    st.integers(0, 40),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_grid_zero_mask_matches_bilinear(n, rank, width, density, seed):
    """Random forms, sparse enough that some elements survive every column,
    with a random starting mask; repeated columns exercise the de-duplication."""
    while n**rank > 1 << 15:
        rank -= 1
    rng = np.random.default_rng(seed)
    form = rng.integers(0, n, size=(rank, rank, width)) * (rng.random((rank, rank, width)) < density)
    if width > 2:
        form[:, :, -1] = form[:, :, 0]
    grid = Grid(n, rank)
    rows = grid.rows()
    want = reference_zero_mask(rows, form, n)
    assert (grid.zero_mask(form) == want).all()
    alive = rng.random(grid.size) < 0.5
    assert (grid.zero_mask(form, alive) == (want & alive)).all()


def test_grid_finishes_on_survivors():
    """A form that few elements satisfy leaves the grid after its first
    columns; the survivors then meet the remaining columns alone."""
    n, rank = 3, 6
    grid = Grid(n, rank)
    form = np.zeros((rank, rank, rank), dtype=np.int64)
    for i in range(rank):
        form[i, i, i] = 1  # x_i^2 = 0 mod 3 exactly when x_i = 0
    mask = grid.zero_mask(form)
    assert np.flatnonzero(mask).tolist() == [0]
    form[0, 1, 5] = 1  # a cross term in the last column
    alive = np.zeros(grid.size, dtype=bool)
    alive[[0, 5, 7]] = True
    assert (grid.zero_mask(form, alive) == reference_zero_mask(grid.rows(), form, n) & alive).all()


def test_grid_refuses_over_cap():
    ring = make_quotient_ring(4, [1, 1, 1])
    with pytest.raises(RingTooLarge, match="cap is 15"):
        Grid.of(ring, cap=15)
    with pytest.raises(RingTooLarge):
        all_elements_array(ring, cap=15)


# -- extensions -------------------------------------------------------------------


def test_census_masks_match_chunked_routes(request):
    for ext in desk_extensions(request):
        census = classify_all(ext, counit_oracle=False)
        units, cosickle, coassoc, almost = reference_census(ext)
        assert (census.elements == reference_elements(ext.tensor_power(3).ring)).all()
        assert (census.is_unit == units).all(), ext
        assert (census.is_cosickle == cosickle).all(), ext
        assert (census.is_coassociative == coassoc).all(), ext
        assert (census.is_almost_invertible == almost).all(), ext
        assert (census.is_cocycle == (units & cosickle)).all(), ext


def test_grid_unit_rows_match_chunked_routes(request):
    for ext in desk_extensions(request):
        for m in (1, 2, 3):
            ring = ext.tensor_power(m).ring
            assert (enumerate_units(ring, as_array=True) == reference_units(ring)).all(), (ext, m)


def test_z2_is_the_cocycle_mask_on_units(request):
    for ext in desk_extensions(request):
        units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
        z2 = compute_h2(ext).z2
        assert z2.shape[1] == units3.shape[1]
        assert (z2 == units3[cocycle_mask(ext, units3)]).all(), ext


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=2, max_size=2))
    )
)
def test_census_masks_on_random_extensions(args):
    n, low = args
    ext = simple_extension(zmod_ring(n), make_quotient_ring(n, low + [1]))
    census = classify_all(ext, counit_oracle=False)
    units, cosickle, coassoc, almost = reference_census(ext)
    assert (census.is_unit == units).all()
    assert (census.is_cosickle == cosickle).all()
    assert (census.is_coassociative == coassoc).all()
    assert (census.is_almost_invertible == almost).all()


@pytest.mark.parametrize("fixture", ["f2x2_over_f2", "z2sq_over_f2", "gr42_over_z4"])
def test_witness_search_keeps_the_lex_first_witness(request, fixture):
    ext = request.getfixturevalue(fixture)
    z2 = compute_h2(ext).z2
    rng = np.random.default_rng(5)
    for i, j in rng.integers(0, len(z2), size=(6, 2)):
        got = _witness_search(ext, z2[i], z2[j])
        want = ext.tensor_power(2).one_vec() if i == j else reference_witness(ext, z2[i], z2[j])
        if want is None:
            assert got is None
        else:
            assert (got == want).all()


# -- small helpers ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_unique_rows_matches_np_unique(rows, cols, top, seed):
    a = np.random.default_rng(seed).integers(-top, top, size=(rows, cols))
    want, want_first = np.unique(a, axis=0, return_index=True)
    got, first = zmod.unique_rows(a, return_index=True)
    assert got.shape == want.shape and (got == want).all()
    assert (first == want_first).all()
    assert (zmod.unique_rows(a) == want).all()


def test_one_vec_is_cached_and_read_only(f4_over_f2):
    t2 = f4_over_f2.tensor_power(2)
    one = t2.one_vec()
    assert one is t2.one_vec() and not one.flags.writeable
    assert (one == t2.embed_pure([f4_over_f2.top.one] * 2)).all()


def test_descent_algebra_keeps_one_howell_form(gr42_over_z4):
    """Membership through the stored form agrees with a fresh Howell form."""
    ext = gr42_over_z4
    alg = DescentAlgebra(ext, TwistElement(ext, compute_h2(ext).z2[-1]))
    fresh = zmod.howell(alg.solution_basis, ext.n)
    assert (fresh.h == alg.solution_basis).all()
    rng = np.random.default_rng(3)
    basis = alg.solution_basis
    inside = (rng.integers(0, ext.n, size=(8, len(basis))) @ basis) % ext.n
    anywhere = rng.integers(0, ext.n, size=(8, basis.shape[1]))
    for vec in np.vstack([inside, anywhere, [alg.unit_vec()]]):
        assert alg.contains(vec) == zmod.in_row_span(fresh, vec, ext.n)
    assert all(alg.contains(v) for v in inside)
