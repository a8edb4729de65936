"""Products of two sets of elements, and the column-blocked grid forms, against
the routes they replaced.

Every product of a batch x with a batch y is one `zmod.outer_products`: the
multiplication matrix of each x_i, then every y_j through it.  The oracles
below are the routes it replaced: each pair written out with
`np.repeat`/`np.tile` and multiplied by `mul_rows` or `bilinear_mod`.  The
grid forms against the whole-width cross term of `Grid.zero_mask` before it
took its output columns in blocks.  Every result must be equal byte for byte.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import zmod
from corings.algebras import algebra_from_extension, ambient_algebra, right_dual_algebra
from corings.amitsur import b2_rows, compute_h2, cosickle_form
from corings.classify import _coassoc_difference_tensor, classify_all, monoid_quotient
from corings.coring import twisted_coring
from corings.extensions import amitsur_rebase
from corings.rings import FiniteRing, Grid, _column_basis, _values, make_quotient_ring, zmod_ring
from tests.conftest import DESK, desk_extensions, random_extension, simple_extension, sorted_cosets
from tests.test_kernels import MODULI, finite_ring


def pairs(x, y):
    """Row i·len(y) + j is (x_i, y_j): the repeat/tile pairing."""
    return np.repeat(x, len(y), axis=0), np.tile(y, (len(x), 1))


def paired_products(x, y, table, n):
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    flat = zmod.bilinear_mod(*pairs(x, y), table, n)
    return flat.reshape(len(x), len(y), table.shape[2])


def ring_products(ring, x, y):
    return ring.mul_rows(*pairs(x, y)).reshape(len(x), len(y), ring.rank)


def repeat_tile_cosets(ext, rows, b2):
    """sorted_cosets as it was: 4096 paired products per mul_rows call."""
    t3 = ext.tensor_power(3).ring
    step = max(1, (1 << 12) // len(b2))
    for start in range(0, len(rows), step):
        prods = ring_products(t3, rows[start : start + step], b2)
        order = np.lexsort(np.moveaxis(prods, 2, 0)[::-1], axis=-1)
        yield np.take_along_axis(prods, order[:, :, None], axis=1)


def repeat_tile_cosickle_form(ext):
    t4 = ext.tensor_power(4).ring
    h = [ext.face_map(3, i).matrix.T for i in range(1, 5)]
    return (ring_products(t4, h[0], h[2]) - ring_products(t4, h[1], h[3])) % ext.n


def repeat_tile_projections(a):
    """rings._residue_projections as it was: paired idempotent products, and
    the multiplication matrix of e as mul_rows of the basis against e."""
    p, r = a.n, a.rank
    eye = np.eye(r, dtype=np.int64)
    frob = a.pow_rows(eye, p)
    frob_k, q = frob, p
    while q < r:
        frob_k = zmod.matmul_mod(frob_k, frob, p)
        q *= p
    idems = a.one[None, :]
    berlekamp = zmod.howell((frob - eye) % p, p).k
    for y in berlekamp:
        shifted = (y[None, :] - np.outer(_values(a, y, len(berlekamp)), a.one)) % p
        deltas = (a.one[None, :] - a.pow_rows(shifted, p - 1)) % p
        prods = a.mul_rows(*pairs(idems, deltas))
        idems = prods[prods.any(axis=1)]
    out = []
    for e in idems:
        proj = zmod.matmul_mod(a.mul_rows(eye, np.broadcast_to(e, (r, r))), frob_k, p)
        out.append(zmod.column_basis(proj, p))
    return out


def repeat_tile_residue_fields(ring):
    blocks, fields, width = [], [], 0
    for p in zmod.prime_factors(ring.n):
        for proj in repeat_tile_projections(FiniteRing(p, ring.struct, ring.one, check=False)):
            blocks.append(proj)
            fields.append((p, width, width + proj.shape[1]))
            width += proj.shape[1]
    proj = np.hstack(blocks) if blocks else np.zeros((ring.rank, 0), dtype=np.int64)
    return proj, tuple(fields)


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_ring(ring, rows):
    """products, mul_rows and residue fields of one ring on a batch of rows."""
    for x, y in ((rows, rows), (rows[:1], rows), (rows, rows[:1]), (rows[:0], rows), (rows, rows[:0])):
        same_bytes(ring.products(x, y), ring_products(ring, x, y))
    proj, fields = repeat_tile_residue_fields(ring)
    same_bytes(ring.residue_fields.proj, proj)
    assert ring.residue_fields.fields == fields


def check_extension(ext, rows):
    """cosickle_form and sorted_cosets of rows of S^⊗3 against a batch of units."""
    same_bytes(cosickle_form(ext), repeat_tile_cosickle_form(ext))
    units = rows[zmod.batch_is_unit(rows, ext.tensor_power(3).ring.residue_fields)]
    for b in (units, units[:1]):
        for x in (rows, rows[:1], rows[:0]):
            got = list(sorted_cosets(ext, x, b))
            want = list(repeat_tile_cosets(ext, x, b))
            assert len(got) == len(want)
            if len(x):
                same_bytes(np.concatenate(got), np.concatenate(want))


def check_algebra(alg, rows=None):
    size = alg.dim * alg.base.rank
    rows = np.eye(size, dtype=np.int64) if rows is None else rows
    for x, y in ((rows, rows), (rows[:1], rows), (rows, rows[:1]), (rows[:0], rows), (rows, rows[:0])):
        same_bytes(alg.products(x, y), paired_products(x, y, alg.table, alg.n))


def sample_rows(ring, k, seed):
    return np.random.default_rng(seed).integers(0, ring.n, size=(k, ring.rank))


# -- the kernel on the desk fixtures -------------------------------------------------


def test_set_products_on_desk_fixtures(request):
    """S^⊗1..4 rings, cosets, cosickle forms and algebras of the desk fixtures and (F4⊗F4)/F4."""
    for seed, ext in enumerate(desk_extensions(request)):
        for m in range(1, 5):
            ring = ext.tensor_power(m).ring
            check_ring(ring, sample_rows(ring, 40, seed))
        h2 = compute_h2(ext)
        t3 = ext.tensor_power(3).ring
        check_extension(ext, np.vstack([h2.z2[:20], sample_rows(t3, 30, seed)]))
        same_bytes(np.concatenate(list(sorted_cosets(ext, h2.z2, h2.b2))),
                   np.concatenate(list(repeat_tile_cosets(ext, h2.z2, h2.b2))))
        check_algebra(algebra_from_extension(ext))
        check_algebra(ambient_algebra(ext))
        dual = right_dual_algebra(twisted_coring(ext, h2.z2[-1])).algebra()
        check_algebra(dual)


@pytest.mark.parametrize("name", DESK)
def test_monoid_quotient_matches_repeat_tile_orbits(request, name):
    ext = request.getfixturevalue(name)
    quotient = monoid_quotient(ext, "full")
    census = classify_all(ext, counit_oracle=False)
    minima = [c[:, 0] for c in repeat_tile_cosets(ext, census.grid.rows(census.is_cosickle), b2_rows(ext))]
    same_bytes(quotient.representatives, zmod.unique_rows(np.concatenate(minima)))


# -- the kernel on random rings ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODULI).flatmap(finite_ring), st.integers(0, 2**16))
def test_set_products_on_random_rings(ring, seed):
    rows = sample_rows(ring, 12, seed)
    rows[0] = 0
    check_ring(ring, rows)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(MODULI).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
    ),
    st.integers(0, 2**16),
)
def test_cosets_and_forms_on_random_extensions(case, seed):
    n, poly = case
    ext = random_extension(n, poly + [1], rebased=False)
    t3 = ext.tensor_power(3).ring
    rows = sample_rows(t3, 16, seed)
    rows[1] = t3.one
    check_extension(ext, rows)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MODULI),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 2**16),
)
def test_outer_products_on_random_tables(n, r1, r2, k, nx, ny, seed):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, n, size=(r1, r2, k))
    x = rng.integers(0, n, size=(nx, r1))
    y = rng.integers(0, n, size=(ny, r2))
    same_bytes(zmod.outer_products(x, y, table, n), paired_products(x, y, table, n))


def test_outer_products_across_row_blocks(monkeypatch):
    """Row blocks of one row up to all rows give the same products."""
    rng = np.random.default_rng(7)
    n, r = 12, 6
    table = rng.integers(0, n, size=(r, r, r))
    x = rng.integers(0, n, size=(9, r))
    y = rng.integers(0, n, size=(5, r))
    want = paired_products(x, y, table, n)
    for entries in (1, r * r, 3 * r * r, 1 << 17):
        monkeypatch.setattr(zmod, "BLOCK_ENTRIES", entries)
        same_bytes(zmod.outer_products(x, y, table, n), want)


def test_outer_products_split_long_contractions():
    """Both GEMMs split their contraction when r (n-1)^2 reaches 2^53.

    With n = 2^26 two terms of (n-1)^2 fit below 2^53, so every contraction
    of length 5 runs in three parts, reduced between parts; Python integers
    give the expected values.
    """
    n = 1 << 26
    rng = np.random.default_rng(11)
    x = rng.integers(0, n, size=(3, 5))
    y = rng.integers(0, n, size=(4, 5))
    table = rng.integers(0, n, size=(5, 5, 2))
    x[0] = y[0] = table[0, 0] = n - 1
    want = np.einsum("ia,jb,abk->ijk", x.astype(object), y.astype(object), table.astype(object)) % n
    same_bytes(zmod.outer_products(x, y, table, n), want.astype(np.int64))


# -- column blocks of Grid.zero_mask -----------------------------------------------------


def whole_width_zero_mask(grid, form, alive=None):
    """Grid.zero_mask with its cross term formed over every output column at once."""
    n, a, b = grid.n, grid.a, grid.b
    flat = np.asarray(form, dtype=np.int64).reshape(grid.rank**2, -1) % n
    cols = np.sort(zmod.unique_rows(flat.T, return_index=True)[1])
    form = flat[:, cols[flat[:, cols].any(axis=0)]].reshape(grid.rank, grid.rank, -1)
    alive = np.ones(grid.size, dtype=bool) if alive is None else alive.copy()
    high_q = zmod.bilinear_mod(grid.high, grid.high, form[:a, :a], n)
    low_q = zmod.bilinear_mod(grid.low, grid.low, form[a:, a:], n)
    width = form.shape[2]
    cross = (form[:a, a:] + form[a:, :a].transpose(1, 0, 2)) % n
    high_cross = zmod.matmul_mod(grid.high, cross.reshape(a, b * width), n)
    high_cross = high_cross.reshape(grid.shape[0], b, width)
    left = np.ones((grid.shape[0], b + 2))
    right = np.ones((b + 2, grid.shape[1]))
    right[:b] = grid.low.T
    table = alive.reshape(grid.shape)
    for k in range(width):
        if 8 * grid.rank * np.count_nonzero(alive) <= grid.size:
            idx = np.flatnonzero(alive)
            h, l = np.divmod(idx, grid.shape[1])
            rest = np.einsum("sjk,sj->sk", high_cross[h, :, k:], grid.low[l])
            rest += high_q[h, k:] + low_q[l, k:]
            alive[idx] = ~(rest % n).any(axis=1)
            break
        left[:, :b] = high_cross[:, :, k]
        left[:, b] = high_q[:, k]
        right[b + 1] = low_q[:, k]
        q = left @ right / n
        table &= np.floor(q) == q
    return alive


def switch_column(grid, form, alive=None):
    """The output column at which the survivors-only path takes over, or None."""
    rows = grid.rows()
    alive = np.ones(grid.size, dtype=bool) if alive is None else alive.copy()
    form = _column_basis(form, grid.rank, grid.n)
    for k in range(form.shape[2]):
        if 8 * grid.rank * np.count_nonzero(alive) <= grid.size:
            return k
        alive &= ~(np.einsum("si,ij,sj->s", rows, form[:, :, k], rows) % grid.n).astype(bool)
    return None


def blocked_masks(monkeypatch, grid, form, alive=None):
    """zero_mask with one, two, ... output columns per block, then the default."""
    width = _column_basis(form, grid.rank, grid.n).shape[2]
    masks = {}
    for cols in range(1, width + 2):
        monkeypatch.setattr(zmod, "BLOCK_ENTRIES", cols * grid.shape[0] * grid.b)
        masks[cols] = grid.zero_mask(form, alive)
    monkeypatch.undo()
    masks[None] = grid.zero_mask(form, alive)
    return masks


def test_zero_mask_on_rank_one(monkeypatch):
    """a = 0: the high half is one empty row and the cross term has no terms."""
    for n in (2, 3, 4, 12):
        grid = Grid(n, 1)
        assert grid.a == 0
        form = np.array([[[1, 0, n - 1, 2]]])
        for mask in blocked_masks(monkeypatch, grid, form).values():
            same_bytes(mask, whole_width_zero_mask(grid, form))


def test_zero_mask_of_width_zero(monkeypatch):
    for n, rank in ((2, 3), (3, 1), (4, 4)):
        grid = Grid(n, rank)
        for form in (np.zeros((rank, rank, 0), dtype=np.int64), np.zeros((rank, rank, 3), dtype=np.int64)):
            for mask in blocked_masks(monkeypatch, grid, form).values():
                same_bytes(mask, whole_width_zero_mask(grid, form))
                assert mask.all()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 6), (2, 8), (3, 4), (4, 4), (6, 3)]), st.integers(1, 12), st.integers(0, 2**16))
def test_zero_mask_across_column_blocks(shape, width, seed):
    """Blocks below, at and above the width, from random forms with random alive sets."""
    n, rank = shape
    grid = Grid(n, rank)
    rng = np.random.default_rng(seed)
    form = rng.integers(0, n, size=(rank, rank, width))
    form[:, :, rng.integers(0, width)] = form[:, :, 0]  # a repeated column
    alive = rng.random(grid.size) < 0.7
    want = whole_width_zero_mask(grid, form, alive)
    with pytest.MonkeyPatch.context() as mp:
        for mask in blocked_masks(mp, grid, form, alive).values():
            same_bytes(mask, want)


def test_zero_mask_switches_inside_a_block(monkeypatch):
    """Survivors fall below the switch in the middle of a block, not at its start."""
    grid = Grid(2, 10)
    rng = np.random.default_rng(3)
    form = rng.integers(0, 2, size=(10, 10, 14))
    k = switch_column(grid, form)
    assert k is not None and k > 2
    want = whole_width_zero_mask(grid, form)
    masks = blocked_masks(monkeypatch, grid, form)
    assert any(cols and k % cols for cols in masks)
    for mask in masks.values():
        same_bytes(mask, want)


def test_census_forms_across_column_blocks(monkeypatch, request):
    """The cosickle and coassociativity forms of the desk fixtures and (F4⊗F4)/F4."""
    for ext in desk_extensions(request):
        grid = Grid.of(ext.tensor_power(3).ring)
        for form in (cosickle_form(ext), _coassoc_difference_tensor(ext)):
            want = whole_width_zero_mask(grid, form)
            width = _column_basis(form, grid.rank, grid.n).shape[2]
            for cols in (1, 3, width, width + 1):
                monkeypatch.setattr(zmod, "BLOCK_ENTRIES", cols * grid.shape[0] * grid.b)
                same_bytes(grid.zero_mask(form), want)
            monkeypatch.undo()
            same_bytes(grid.zero_mask(form), want)


# -- transient memory -----------------------------------------------------------------------


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_census_peak_memory_on_the_rebased_extension():
    """classify_all over the 2^16 elements of S^⊗3 of (F4⊗F4)/F4 (6.7 MB before column blocks)."""
    ext = amitsur_rebase(simple_extension(zmod_ring(2), make_quotient_ring(2, [1, 1, 1])))
    compute_h2(ext)
    assert traced_peak_mb(lambda: classify_all(ext, counit_oracle=False)) <= 4.5


def test_quotient_peak_memory_on_gr42():
    """monoid_quotient of the 364 cosickles of GR(4,2)/Z4 by |B^2| = 24 (4.5 MB before the kernel)."""
    ext = simple_extension(zmod_ring(4), make_quotient_ring(4, [1, 1, 1]))
    compute_h2(ext)
    assert traced_peak_mb(lambda: monoid_quotient(ext, "full")) <= 3.0
