"""Tensor rings kept as slot factors: the slot-by-slot product against the
dense structure table it stands in for and, byte for byte, against the x⊗y
route it replaced (conftest.outer_slot_product), its memory, the lazy table,
and the caches that keep compare jobs from building it.

The dense table, the rebased and external extensions are built through
FiniteRing.mul_einsum and one restricted-scalars routine; the ref_ functions
below keep the hand-rolled einsums they replaced, compared byte for byte.
The old tensor-ring table is valid only where a rank-1 base has e_0 = 1.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings.amitsur import TwistElement, compute_h2, delta2, is_two_cocycle
from corings.classify import compare_via_refinement
from corings.coring import twisted_coring
from corings.extensions import (
    DENSE_TABLE_MAX_RANK,
    Extension,
    TensorRing,
    _build_tensor_ring,
    amitsur_rebase,
    external_extension,
)
from corings.rings import FiniteRing, RingHom, make_quotient_ring, zmod_ring
from tests.conftest import (
    DESK,
    desk_extensions,
    outer_slot_product,
    random_extension,
    scaled_zmod,
    simple_extension,
    skewed,
)


# -- reference routes -------------------------------------------------------------


def ref_build_tensor_ring(base, rmults, ones, name):
    """The hand-rolled dense table; its rank-1 branch assumes e_0 e_0 = e_0."""
    n = base.n
    c_r = base.struct.astype(np.int64)
    acc = rmults[0].astype(np.int64) % n
    dim = rmults[0].shape[0]
    for rm in rmults[1:]:
        acc = np.einsum("IJAr,ijas,rst->IiJjAat", acc, rm.astype(np.int64), c_r) % n
        dim *= rm.shape[0]
        acc = acc.reshape(dim, dim, dim, base.rank)
    if base.rank == 1:
        struct = acc.reshape(dim, dim, dim)
    else:
        full = np.einsum("IJAm,psk,kmt->IpJsAt", acc, c_r, c_r) % n
        k = dim * base.rank
        struct = full.reshape(k, k, k)
    return FiniteRing(n, struct, ref_pure_tensor(base, ones), name=name, check=False)


def ref_pure_tensor(base, coords):
    n = base.n
    c_r = base.struct.astype(np.int64)
    acc = coords[0].astype(np.int64) % n
    for c in coords[1:]:
        acc = np.einsum("Ir,is,rst->Iit", acc, c.astype(np.int64), c_r).reshape(-1, base.rank) % n
    return acc.reshape(-1)


def ref_rebase(ext, t_ring, rho):
    """Top ring, eta matrix and basis of (S ⊗_R T)/T from three einsums over T's table."""
    n = ext.n
    d, kt = ext.degree, t_ring.rank
    tt = t_ring.struct.astype(np.int64)
    rho_r = np.einsum("ijam,wm->ijaw", ext.rmult().astype(np.int64), rho.matrix) % n
    tmp = np.einsum("ijav,vsw->ijasw", rho_r, tt) % n  # rho(r) * t_s
    full = np.einsum("ijasw,wtu->isjtau", tmp, tt) % n
    k = d * kt
    struct = full.reshape(k, k, k)
    one_img = np.einsum("am,wm->aw", ext.r_coords(ext.top.one).astype(np.int64), rho.matrix) % n
    top = FiniteRing(n, struct, one_img.reshape(-1), check=False)
    eta_mat = np.einsum("av,vsw->aws", one_img, tt).reshape(k, kt) % n
    return top, eta_mat, np.kron(np.eye(d, dtype=np.int64), t_ring.one)


def ref_external_eta(top):
    base = top.base
    c_r = base.struct.astype(np.int64)
    one_top = top.one.reshape(-1, base.rank)
    return np.einsum("rst,As->Atr", c_r, one_top).reshape(top.rank, base.rank) % base.n


def table_is_valid_for_ref(base):
    return base.rank > 1 or base.struct[0, 0, 0] == 1


# -- comparisons ------------------------------------------------------------------


def dense_table(ring: TensorRing) -> np.ndarray:
    """The structure table built from the factors, without touching the ring's cache.

    Where the old route is valid, it must give the same bytes.
    """
    table = _build_tensor_ring(ring.base, ring.rmults)
    if table_is_valid_for_ref(ring.base):
        ref = ref_build_tensor_ring(ring.base, ring.rmults, ring.ones, "ref").struct
        assert table.dtype == ref.dtype and table.tobytes() == ref.tobytes()
    return table


def check_rebase(ext):
    """amitsur_rebase(ext) against the three-einsum route: same table bytes, unit, eta, basis."""
    new = amitsur_rebase(ext)
    top, eta_mat, basis = ref_rebase(ext, ext.top, ext.eta)
    assert new.top.struct.dtype == top.struct.dtype and new.top.struct.tobytes() == top.struct.tobytes()
    assert (new.top.one == top.one).all()
    assert (new.eta.matrix == eta_mat).all() and (new.basis == basis).all()
    assert new.name == f"({ext.top.name}(x){ext.top.name})/{ext.top.name}"


def check_external(ext_s, ext_t):
    """external_extension against the old eta einsum, then its top on every basis pair."""
    big = external_extension(ext_s, ext_t)
    assert (big.eta.matrix == ref_external_eta(big.top)).all()
    assert (big.basis == np.kron(np.eye(big.degree, dtype=np.int64), big.base.one)).all()
    check_basis_pairs(big.top)


def table_product(struct, x, y, n):
    out = np.zeros(len(x), dtype=np.int64)
    for i in np.nonzero(x)[0]:
        out += int(x[i]) * (y @ struct[i].astype(np.int64))
    return out % n


def check_basis_pairs(ring):
    struct = dense_table(ring)
    eye = np.eye(ring.rank, dtype=np.int64)
    for i in range(ring.rank):
        for j in range(ring.rank):
            assert (ring.mul_slots(eye[i], eye[j]) == struct[i, j]).all(), (ring, i, j)
    assert (ring.one == ref_pure_tensor(ring.base, ring.ones)).all()


def check_outer_route(ring, pairs):
    """mul_slots against the x⊗y route of conftest, byte for byte, on each pair (x, y)."""
    for x, y in pairs:
        new, old = ring.mul_slots(x, y), outer_slot_product(ring, x, y)
        assert new.dtype == old.dtype and new.shape == old.shape, (ring, x, y)
        assert new.tobytes() == old.tobytes(), (ring, x, y)


def random_pairs(ring, rng, count):
    """count seeded pairs of sparse to full density, then the pair of all-(n - 1) vectors."""
    pairs = []
    for k in range(count):
        x, y = rng.integers(0, ring.n, (2, ring.rank)) * (rng.random((2, ring.rank)) < (k + 1) / count)
        pairs.append((x, y))
    return pairs + [(np.full(ring.rank, ring.n - 1), np.full(ring.rank, ring.n - 1))]


def test_slot_product_matches_table_on_basis_pairs(request):
    """Every basis product e_i e_j at levels 2-4, base rank 1 and 2, native and skewed
    bases; the Amitsur rebase of each against the einsum route."""
    rng = np.random.default_rng(3)
    for ext in desk_extensions(request) + [skewed(e, rng) for e in desk_extensions(request)]:
        for m in (2, 3, 4):
            check_basis_pairs(ext.tensor_power(m).ring)
        check_rebase(ext)


def test_slot_product_matches_table_with_distinct_factors(f4_over_f2, f2x2_over_f2):
    """The top F4⊗(F2×F2) of an external extension has two different factors."""
    rng = np.random.default_rng(5)
    for ext_s, ext_t in [(f4_over_f2, f2x2_over_f2), (skewed(f4_over_f2, rng), skewed(f2x2_over_f2, rng))]:
        check_external(ext_s, ext_t)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([4, 6, 8, 9, 12]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(2, 3).flatmap(
                lambda d: st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(lambda c: c + [1])
            ),
            st.booleans(),
            st.integers(0, 2**32 - 1),
            st.sampled_from([c for c in range(1, n) if math.gcd(c, n) == 1]),
            st.booleans(),
        )
    )
)
def test_slot_product_matches_table_on_random_extensions(case):
    """Base Z/n on e_0 = c·1 for a random unit c, native or skewed basis; each
    product also byte for byte against the x⊗y route."""
    n, poly, rebased, seed, c, skew = case
    ext = random_extension(n, poly, rebased and len(poly) == 3, c)
    rng = np.random.default_rng(seed)
    if skew:
        ext = skewed(ext, rng)
    check_rebase(ext)
    big = external_extension(ext, ext)
    assert (big.eta.matrix == ref_external_eta(big.top)).all()
    dense_table(big.top)
    for m in (2, 3, 4) if len(poly) == 3 else (2, 3):
        ring = ext.tensor_power(m).ring
        table = dense_table(ring)
        for _ in range(4):
            x, y = rng.integers(0, n, (2, ring.rank))
            assert (ring.mul_slots(x, y) == table_product(table, x, y, n)).all()
            check_outer_route(ring, [(x, y)])


def refined_extension():
    f2 = zmod_ring(2)
    f4 = simple_extension(f2, make_quotient_ring(2, [1, 1, 1]))
    f2x2 = simple_extension(f2, make_quotient_ring(2, [0, 1, 1]))
    return f4, f2x2, external_extension(f4, f2x2)


def test_rank_one_base_on_a_multiple_of_one():
    """Z/5 on e_0 = 2·1 under GF(25) = Z/5[x]/(x^2 + 2): e_0 e_0 = 2 e_0, not e_0.

    A dense table that takes the base's only structure constant to be 1
    breaks the unit law of S^⊗2 and puts B^2 outside Z^2.
    """
    base = scaled_zmod(5, 2)
    assert (base.struct == [[[2]]]).all() and (base.one == [3]).all()
    top = make_quotient_ring(5, [2, 0, 1])
    ext = Extension(base, top, RingHom(base, top, np.outer(top.one, [2])), np.eye(2, dtype=np.int64))
    ext.tensor_power(2).ring.validate()
    for m in (1, 2, 3):
        for i in range(1, m + 2):
            assert ext.face_map(m, i).is_multiplicative()
        check_basis_pairs(ext.tensor_power(m + 1).ring)
    h2 = compute_h2(ext)
    assert len(h2.z2) == len(h2.b2) == 96 and h2.order == 1


def test_slot_product_matches_table_in_refined_fourth_power():
    """Random pairs in S^⊗4 of (F4⊗(F2×F2))/F2, rank 256, where mul_vec goes slot by slot."""
    ring = refined_extension()[2].tensor_power(4).ring
    assert ring.rank > DENSE_TABLE_MAX_RANK
    table = dense_table(ring)
    rng = np.random.default_rng(4)
    for density in (0.05, 0.5, 1.0):
        for _ in range(3):
            x, y = rng.integers(0, 2, (2, ring.rank)) * (rng.random((2, ring.rank)) < density)
            assert (ring.mul_vec(x, y) == table_product(table, x, y, 2)).all()
    assert "struct" not in vars(ring)


def test_slot_product_matches_outer_route_in_refined_powers():
    """S^⊗2..4 of the refined compare extension: every basis pair of S^⊗2 and
    S^⊗3, and of S^⊗4 (rank 256) every pair with a first factor e_17t, the
    slot tuples (a, b, a, b), plus seeded random pairs at each level.

    All 65536 basis pairs of S^⊗4 would take about a minute through the
    x⊗y route.
    """
    ext = refined_extension()[2]
    rng = np.random.default_rng(24)
    for m in (2, 3, 4):
        ring = ext.tensor_power(m).ring
        eye = np.eye(ring.rank, dtype=np.int64)
        firsts = range(0, ring.rank, 17) if m == 4 else range(ring.rank)
        check_outer_route(ring, [(eye[i], eye[j]) for i in firsts for j in range(ring.rank)])
        check_outer_route(ring, random_pairs(ring, rng, 8))
    assert ring.rank == 256 and "struct" not in vars(ring)


def test_slot_product_matches_outer_route_over_rebased_f4(f4_over_f2):
    """(F4⊗F4)/F4: a rank-2 base with a table that is not the identity's, at
    levels 2-4 (ranks 8, 16, 32, below DENSE_TABLE_MAX_RANK, so mul_slots is
    called directly)."""
    ext = amitsur_rebase(f4_over_f2)
    assert ext.base.rank == 2 and ext.base.struct.astype(int).sum() > 2
    rng = np.random.default_rng(17)
    for ring in (ext.tensor_power(m).ring for m in (2, 3, 4)):
        check_outer_route(ring, random_pairs(ring, rng, 16))


def test_slot_product_matches_outer_route_in_gf8_fourth_power(f2):
    """S^⊗4 of GF(8)/F2, rank 81, where mul_vec goes slot by slot."""
    ring = simple_extension(f2, make_quotient_ring(2, [1, 1, 0, 1])).tensor_power(4).ring
    assert ring.rank == 81 > DENSE_TABLE_MAX_RANK
    eye = np.eye(ring.rank, dtype=np.int64)
    check_outer_route(ring, [(eye[i], eye[j]) for i in range(0, ring.rank, 10) for j in range(ring.rank)])
    check_outer_route(ring, random_pairs(ring, np.random.default_rng(8), 24))


def test_slot_product_memory_in_refined_fourth_power():
    """One product in the rank-256 S^⊗4 of the refined extension peaks below
    three int64 arrays of r²/d entries (d = 4: 384 KB) traced; the x⊗y route
    peaks at about 1.16 MB."""
    ring = refined_extension()[2].tensor_power(4).ring
    x, y = np.random.default_rng(2).integers(0, 2, (2, ring.rank))
    ring.mul_slots(x, y)  # the slot tensors are built once per ring
    tracemalloc.start()
    try:
        ring.mul_slots(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * ring.rank**2 // 4, peak


@pytest.fixture(scope="module")
def rank_66_over_itself():
    """R/R for R = F2[x]/(x^66 + x^65 + 1): every S^⊗m is R again, of rank 66, so no dense table."""
    r = make_quotient_ring(2, [1] + [0] * 64 + [1, 1])
    return Extension(r, r, RingHom(r, r, np.eye(r.rank, dtype=np.int64)), r.one[None, :])


@pytest.mark.parametrize("level", [32, 63])
def test_slot_product_at_the_deepest_levels(rank_66_over_itself, level):
    """x·1 = x and xy = yx in S^⊗32 and S^⊗63, xy is the product in R, and
    both are byte for byte those of the x⊗y route.

    Read as x⊗y with 2m + 1 axes, a product above 31 slots passed numpy's 64.
    """
    ring = rank_66_over_itself.tensor_power(level).ring
    base = rank_66_over_itself.base
    assert ring.rank == 66 > DENSE_TABLE_MAX_RANK
    rng = np.random.default_rng(level)
    for _ in range(3):
        x, y = rng.integers(0, 2, (2, ring.rank))
        assert (ring.mul_vec(x, ring.one) == x).all()
        assert (ring.mul_vec(x, y) == ring.mul_vec(y, x)).all()
        assert (ring.mul_vec(x, y) == base.mul_vec(x, y)).all()
        check_outer_route(ring, [(x, y), (x, ring.one)])
    assert "struct" not in vars(ring)


def test_small_tensor_rings_keep_the_table_path(f4_over_f2):
    ring = f4_over_f2.tensor_power(3).ring
    assert ring.rank <= DENSE_TABLE_MAX_RANK
    ring.mul_vec(ring.one, ring.one)
    assert "struct" in vars(ring)


def test_compare_never_builds_the_fourth_power_table():
    """The compare.json job: same witness and twists, no dense table of S^⊗4."""
    f4, f2x2, refined = refined_extension()
    left = twisted_coring(f4, [0, 0, 1, 0, 0, 0, 0, 0])
    right = twisted_coring(f2x2, [1, 0, 0, 0, 0, 0, 0, 0])
    res = compare_via_refinement(left, right)
    assert res.refined_ext is refined
    assert "struct" not in vars(refined.tensor_power(4).ring)
    t3, t2 = np.eye(64, dtype=np.int64), np.eye(16, dtype=np.int64)
    assert res.equivalent
    assert (res.left_twist == t3[8]).all() and (res.right_twist == t3[0]).all()
    assert (res.witness == t2[8]).all()


def test_single_element_coboundaries_never_build_the_fourth_power_table():
    """delta_2 of one element multiplies its faces through mul_vec, slot by slot in S^⊗4."""
    refined = refined_extension()[2]
    t4 = refined.tensor_power(4).ring
    assert t4.rank > DENSE_TABLE_MAX_RANK
    twist = TwistElement(refined, np.eye(64, dtype=np.int64)[8])  # the left twist of compare.json
    assert is_two_cocycle(twist)
    assert (delta2(refined, twist.u.coeffs) == t4.one).all()
    assert "struct" not in vars(t4)


def test_ring_equals_itself_without_building_its_table():
    ext = simple_extension(zmod_ring(2), make_quotient_ring(2, [0, 1, 1]))
    ring = ext.tensor_power(7).ring
    assert ring.rank > DENSE_TABLE_MAX_RANK
    assert ring == ring
    assert ring.one_element() * ring.one_element() == ring.one_element()
    assert "struct" not in vars(ring)


@pytest.mark.parametrize("name", DESK)
def test_merge_maps_are_cached(request, name):
    ext = request.getfixturevalue(name)
    for m in (2, 3, 4):
        for first in (True, False):
            cached = ext.merge_map(m, first)
            assert ext.merge_map(m, first) is cached
            assert (cached.matrix == ext._build_merge_map(m, first).matrix).all()
