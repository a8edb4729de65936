"""Tensor rings kept as slot factors: the slot-by-slot product against the
dense structure table it stands in for, the lazy table, and the caches that
keep compare jobs from building it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings.amitsur import TwistElement, delta2, is_two_cocycle
from corings.classify import compare_via_refinement
from corings.coring import twisted_coring
from corings.extensions import (
    DENSE_TABLE_MAX_RANK,
    TensorRing,
    _build_tensor_ring,
    external_extension,
)
from corings.rings import make_quotient_ring, zmod_ring
from tests.conftest import DESK, desk_extensions, random_extension, simple_extension


def dense_table(ring: TensorRing) -> np.ndarray:
    """The structure table built from the factors, without touching the ring's cache."""
    return _build_tensor_ring(ring.base, ring.rmults, ring.ones, "dense").struct


def table_product(struct, x, y, n):
    out = np.zeros(len(x), dtype=np.int64)
    for i in np.nonzero(x)[0]:
        out += int(x[i]) * (y @ struct[i].astype(np.int64))
    return out % n


def check_basis_pairs(ring):
    dense = _build_tensor_ring(ring.base, ring.rmults, ring.ones, "dense")
    eye = np.eye(ring.rank, dtype=np.int64)
    for i in range(ring.rank):
        for j in range(ring.rank):
            assert (ring.mul_slots(eye[i], eye[j]) == dense.struct[i, j]).all(), (ring, i, j)
    assert (ring.one == dense.one).all()


def test_slot_product_matches_table_on_basis_pairs(request):
    """Every basis product e_i e_j at levels 2-4, base rank 1 and 2."""
    for ext in desk_extensions(request):
        for m in (2, 3, 4):
            check_basis_pairs(ext.tensor_power(m).ring)


def test_slot_product_matches_table_with_distinct_factors(f4_over_f2, f2x2_over_f2):
    """The top F4⊗(F2×F2) of an external extension has two different factors."""
    check_basis_pairs(external_extension(f4_over_f2, f2x2_over_f2).top)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([4, 6, 9, 12]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(2, 3).flatmap(
                lambda d: st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(lambda c: c + [1])
            ),
            st.booleans(),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_slot_product_matches_table_on_random_extensions(case):
    n, poly, rebased, seed = case
    ext = random_extension(n, poly, rebased and len(poly) == 3)
    rng = np.random.default_rng(seed)
    for m in (2, 3, 4) if len(poly) == 3 else (2, 3):
        ring = ext.tensor_power(m).ring
        table = dense_table(ring)
        for _ in range(4):
            x, y = rng.integers(0, n, (2, ring.rank))
            assert (ring.mul_slots(x, y) == table_product(table, x, y, n)).all()


def refined_extension():
    f2 = zmod_ring(2)
    f4 = simple_extension(f2, make_quotient_ring(2, [1, 1, 1]))
    f2x2 = simple_extension(f2, make_quotient_ring(2, [0, 1, 1]))
    return f4, f2x2, external_extension(f4, f2x2)


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
