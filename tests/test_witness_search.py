"""The coboundary-witness search against the chunked search it replaced.

`amitsur._witness_search` fixes the equation u·w_2 = v·w_1·w_3 once per
search, as one linear map and one quadratic form on S^⊗2, and tests blocks
of units against both.  The oracle below is the search as it was: chunks of
512 grid elements, three face maps and one rank-r3 `mul_rows` per chunk.
Both must return the same witness byte for byte, or both None.  The last
test pins what cohomologous, iso_test and compare_via_refinement promise:
1⊗1 for equal inputs, and otherwise the lex-first witness of a search that
tries every unit of S^⊗2 one at a time.
"""

from unittest import mock

import numpy as np
import pytest

from corings import zmod
from corings.amitsur import _witness_search, cohomologous, compute_h2, delta1
from corings.classify import compare_via_refinement
from corings.coring import canonical_coring, external_product, iso_test, twisted_coring
from corings.rings import FiniteRing, Grid, enumerate_units, make_quotient_ring, zmod_ring
from tests.conftest import DESK, desk_extensions, random_extension, simple_extension


def chunked_witness(ext, u_vec, v_vec):
    """The replaced search: lex chunks of 512 elements, faces and mul_rows per chunk."""
    t2 = ext.tensor_power(2).ring
    t3 = ext.tensor_power(3).ring
    u_vec = np.asarray(u_vec, dtype=np.int64) % ext.n
    v_vec = np.asarray(v_vec, dtype=np.int64) % ext.n
    if (u_vec == v_vec).all():
        return ext.tensor_power(2).one_vec()
    grid = Grid.of(t2)
    is_unit = grid.unit_mask(t2.residue_fields)
    h1, h2, h3 = (ext.face_map(2, i).matrix.T for i in (1, 2, 3))
    mu_u = t3.mulmat(u_vec).T
    mu_v = t3.mulmat(v_vec).T
    chunk = 1 << 9
    for start in range(0, grid.size, chunk):
        w = grid.rows_at(start + np.flatnonzero(is_unit[start : start + chunk]))
        if not len(w):
            continue
        lhs = zmod.matmul_mod(zmod.matmul_mod(w, h2, ext.n), mu_u, ext.n)
        w13 = t3.mul_rows(zmod.matmul_mod(w, h1, ext.n), zmod.matmul_mod(w, h3, ext.n))
        hits = (lhs == zmod.matmul_mod(w13, mu_v, ext.n)).all(axis=1)
        if hits.any():
            return w[int(np.argmax(hits))]
    return None


def assert_same(ext, u, v):
    got, want = _witness_search(ext, u, v), chunked_witness(ext, u, v)
    if want is None:
        assert got is None, (ext, u, v)
    else:
        assert got is not None and got.dtype == want.dtype and got.tobytes() == want.tobytes(), (ext, u, v)
    return want


def random_units(ring, rng, count):
    units = np.zeros((0, ring.rank), dtype=np.int64)
    while len(units) < count:
        rows = rng.integers(0, ring.n, size=(64 * count, ring.rank))
        units = np.vstack([units, rows[zmod.batch_is_unit(rows, ring.residue_fields)]])
    return units[:count]


def cohomologous_to(ext, v, rng):
    """v·delta_1(w) for a random unit w of S^⊗2: a pair that has a witness."""
    w = random_units(ext.tensor_power(2).ring, rng, 1)[0]
    return ext.tensor_power(3).ring.mul_vec(v, delta1(ext, w))


@pytest.mark.parametrize("name", DESK)
def test_every_pair_of_cocycles(request, name):
    ext = request.getfixturevalue(name)
    z2 = compute_h2(ext).z2
    found = [assert_same(ext, u, v) is not None for u in z2 for v in z2]
    assert any(found)


def test_random_unit_pairs(request):
    rng = np.random.default_rng(11)
    misses = 0
    for ext in desk_extensions(request):
        t3 = ext.tensor_power(3).ring
        units = random_units(t3, rng, 24)
        for u, v in zip(units[::2], units[1::2]):
            misses += assert_same(ext, u, v) is None
            assert assert_same(ext, cohomologous_to(ext, v, rng), v) is not None
    assert misses


def refined_compare_extension():
    """The refinement (F4⊗F2[x]/(x²+x))/F2 of the cli-mix compare job, with its two twists."""
    f2 = zmod_ring(2)
    c = twisted_coring(simple_extension(f2, make_quotient_ring(2, [1, 1, 1])), [0, 0, 1, 0, 0, 0, 0, 0])
    d = twisted_coring(simple_extension(f2, make_quotient_ring(2, [0, 1, 1])), [1, 0, 0, 0, 0, 0, 0, 0])
    left = external_product(c, canonical_coring(d.ext))
    right = external_product(canonical_coring(c.ext), d)
    return left.ext, left.twist.u.coeffs, right.twist.u.coeffs


def test_compare_job_refinement():
    ext, u, v = refined_compare_extension()
    assert ext.tensor_power(3).rank == 64
    assert assert_same(ext, u, v) is not None
    assert assert_same(ext, v, u) is not None
    rng = np.random.default_rng(2)
    assert assert_same(ext, cohomologous_to(ext, u, rng), v) is not None
    units = random_units(ext.tensor_power(3).ring, rng, 2)
    assert assert_same(ext, units[0], units[1]) is None


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_random_extensions(n):
    rng = np.random.default_rng(n)
    units_n = [c for c in range(1, n) if np.gcd(c, n) == 1]
    for _ in range(2):
        poly = rng.integers(0, n, 2).tolist() + [1]
        ext = random_extension(n, poly, rebased=False, c=int(rng.choice(units_n)))
        units = random_units(ext.tensor_power(3).ring, rng, 4)
        for u, v in zip(units[::2], units[1::2]):
            assert_same(ext, u, v)
            assert assert_same(ext, cohomologous_to(ext, v, rng), v) is not None


def test_search_makes_no_paired_products(request):
    ext = request.getfixturevalue("gr42_over_z4")
    z2 = compute_h2(ext).z2
    want = [chunked_witness(ext, z2[0], v) for v in z2[1:]]
    with mock.patch.object(FiniteRing, "mul_rows", side_effect=AssertionError("mul_rows called")) as mul_rows:
        got = [_witness_search(ext, z2[0], v) for v in z2[1:]]
    assert mul_rows.call_count == 0
    assert all((g is None and w is None) or (g == w).all() for g, w in zip(got, want))


# -- the witness contract of cohomologous, iso_test and compare_via_refinement ---------


def lex_first_witness(ext, u, v):
    """Every unit w of S^⊗2, one at a time in lex order: the first with u = v·delta_1(w)."""
    t3 = ext.tensor_power(3).ring
    for w in enumerate_units(ext.tensor_power(2).ring, as_array=True):
        if (t3.mul_vec(v, delta1(ext, w)) == u).all():
            return w
    return None


@pytest.mark.parametrize("name, lex_first", [("f4_over_f2", [0, 0, 1, 1]), ("gf9_over_f3", [0, 0, 0, 2])])
def test_equal_inputs_get_one_and_other_pairs_the_lex_first_witness(request, name, lex_first):
    """Equal inputs get the identity witness 1⊗1, which is not the lex-first
    unit w with delta_1(w) = 1 that an exhaustive search finds; unequal
    inputs get the lex-first witness."""
    ext = request.getfixturevalue(name)
    one = ext.tensor_power(2).one_vec()
    z2 = compute_h2(ext).z2
    for u in z2:
        c = twisted_coring(ext, u)
        assert lex_first_witness(ext, u, u).tolist() == lex_first != one.tolist()
        assert (cohomologous(c.twist, c.twist) == one).all() and (iso_test(c, c) == one).all()
        for v in z2[:2]:
            if (u != v).any():
                d = twisted_coring(ext, v)
                want = lex_first_witness(ext, u, v)
                assert (cohomologous(c.twist, d.twist) == want).all() and (iso_test(c, d) == want).all()
    canonical = canonical_coring(ext)
    refined = compare_via_refinement(canonical, canonical)
    assert refined.equivalent and (refined.witness == refined.refined_ext.tensor_power(2).one_vec()).all()
