"""The batched elimination of `zmod` and the counit census against their oracles.

`zmod.solvable_right_batch` must give exactly the verdict `solve_right(...)
is not None` for every system of a stack, over prime powers and composite
moduli alike, without a call of the scalar `zmod.howell`.
`zmod.batch_nonsingular` must agree with a plain field elimination.
`classify.counit_solvable` builds the counit systems of a whole batch by one
GEMM; it must agree with the per-element `conftest.counit_solution`.
"""

import tracemalloc
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corings import zmod
from corings.amitsur import b2_rows, delta1
from corings.classify import classify_all, counit_solvable
from corings.extensions import amitsur_rebase
from corings.rings import Grid, InternalCheckError, try_invert
from tests.conftest import counit_solution, random_extension, skewed

MODULI = [2, 3, 4, 6, 8, 9, 12, 27, 30, 36, 64, 1 << 14]


@lru_cache(maxsize=None)
def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@contextmanager
def scalar_calls():
    """Counts the calls of the scalar `zmod.howell` inside the block."""
    with mock.patch.object(zmod, "howell", wraps=zmod.howell) as spy:
        yield spy


def check_solvable(a, rhs, n):
    """solvable_right_batch against solve_right, system by system; no scalar call."""
    with scalar_calls() as spy:
        got = zmod.solvable_right_batch(a, rhs, n)
    assert spy.call_count == 0
    each = np.broadcast_to(rhs, a.shape[:2])
    want = [zmod.solve_right(a[i], each[i], n) is not None for i in range(len(a))]
    assert got.dtype == bool and got.tolist() == want


@st.composite
def stacks(draw, moduli=MODULI):
    """(n, a): a stack of equal-shape systems, each row times a divisor of n,
    with zero systems and rank-deficient (repeated-row) systems among them."""
    n = draw(st.sampled_from(moduli))
    bsz, m, k = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, (bsz, m, k)) * rng.choice(_divisors(n), (bsz, m, 1))
    a[rng.random((bsz, m, k)) < draw(st.sampled_from([0.0, 0.5, 0.8]))] = 0
    a[rng.random(bsz) < 0.15] = 0
    if m > 1:
        deficient = rng.random(bsz) < 0.3
        a[deficient, -1] = (a[deficient, 0] * rng.integers(0, n)) % n
    return n, a % n


@settings(max_examples=150, deadline=None)
@given(stacks(), st.integers(0, 2**32 - 1))
def test_solvable_matches_solve_right(case, seed):
    n, a = case
    rng = np.random.default_rng(seed)
    bsz, m, k = a.shape
    # half the right-hand sides are images A x0, so solvable ones always occur
    rhs = rng.integers(0, n, (bsz, m))
    image = np.einsum("bmk,bk->bm", a, rng.integers(0, n, (bsz, k))) % n
    rhs[::2] = image[::2]
    check_solvable(a, rhs, n)
    check_solvable(a, rhs[0], n)  # one right-hand side for the whole stack


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 27, 30, 36, 64])
def test_one_by_one_systems(n):
    """Every 1×1 system a·x = b over Z/n, in one stack."""
    a, b = np.divmod(np.arange(n * n), n)
    check_solvable(a[:, None, None], b[:, None], n)


@pytest.mark.parametrize("n", [6, 12, 64])
def test_zero_and_single_systems(n):
    check_solvable(np.zeros((2, 3, 2), dtype=np.int64), np.array([[0, 0, 0], [0, 1, 0]]), n)
    check_solvable(np.array([[[2, 1, 0], [0, 3, 1]]]), np.array([1, 1]), n)
    assert zmod.solvable_right_batch(np.zeros((0, 2, 3)), [1, 0], n).shape == (0,)


@pytest.mark.parametrize(
    "column, n",
    [([2, 3], 6), ([3, 2], 6), ([4, 6, 9], 36), ([9, 6, 4], 36), ([6, 10, 15], 30), ([0, 6, 10, 15], 30)],
)
def test_merge_columns_need_no_scalar_call(column, n):
    """Columns that no single entry generates over Z/n are decided prime power by prime power."""
    rng = np.random.default_rng(n + len(column))
    merge = np.hstack([np.array(column)[:, None], rng.integers(0, n, (len(column), 2))])
    plain = np.zeros_like(merge)
    plain[0] = [1, 2, 3]
    a = np.stack([plain, merge, np.zeros_like(merge), merge, plain]).transpose(0, 2, 1)
    # as systems A x = b the merge column is a row of A; b = 1 in that row needs the merge
    rhs = rng.integers(0, n, (len(a), 3))
    rhs[1::2, 0] = 1
    check_solvable(a, rhs, n)
    # together the entries generate Z/n, so column · x = 1 has a solution
    assert zmod.solvable_right_batch(np.array(column)[None, None, :], [1], n).tolist() == [True]


def ref_batch_nonsingular(mats, p):
    """The field-only elimination `zmod.batch_nonsingular` ran before the batched
    kernel: row swaps, pivots scaled by inverses mod p, updates below the pivot."""
    m = (np.asarray(mats, dtype=np.int64) % p).copy()
    bsz, k, _ = m.shape
    ok = np.ones(bsz, dtype=bool)
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)
    rows = np.arange(bsz)
    for c in range(k):
        nz = m[:, c:, c] != 0
        has = nz.any(axis=1)
        ok &= has
        piv = np.argmax(nz, axis=1) + c
        piv[~has] = c  # keep indices valid for the dead batches
        swap = piv != c
        if swap.any():
            w, pv = rows[swap], piv[swap]
            tmp = m[w, c, :].copy()
            m[w, c, :] = m[w, pv, :]
            m[w, pv, :] = tmp
        pivval = m[:, c, c].copy()
        pivval[pivval == 0] = 1
        m[:, c, :] = (m[:, c, :] * inv[pivval][:, None]) % p
        if c + 1 < k:
            factors = m[:, c + 1 :, c]
            m[:, c + 1 :, :] = (m[:, c + 1 :, :] - factors[:, :, None] * m[:, c : c + 1, :]) % p
    return ok


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 64), st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(2, 0, 1, 0)
@example(5, 0, 4, 0)
@example(7, 9, 1, 0)
def test_batch_nonsingular_matches_field_elimination(p, bsz, k, seed):
    """Stacks with many singular matrices: sparse entries, dependent rows and zero rows."""
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, p, (bsz, k, k))
    mats[rng.random((bsz, k, k)) < rng.choice([0.0, 0.5, 0.8])] = 0
    if k > 1:
        deficient = rng.random(bsz) < 0.3
        mats[deficient, -1] = (mats[deficient, 0] * rng.integers(0, p)) % p
    mats[rng.random(bsz) < 0.1, rng.integers(0, k)] = 0
    got = zmod.batch_nonsingular(mats, p)
    assert got.shape == (bsz,) and got.tolist() == ref_batch_nonsingular(mats, p).tolist()


# -- the counit census -----------------------------------------------------------------


def check_counit_route(ext, rows):
    got = counit_solvable(ext, rows)
    want = [counit_solution(ext, u) is not None for u in rows]
    assert got.tolist() == want
    return got


@pytest.mark.parametrize("name", ["f4_over_f2", "f2x2_over_f2", "z2sq_over_f2"])
def test_counit_route_on_every_element(request, name):
    """Every element of S^⊗3 of the desk fixtures with at most 4096 of them."""
    ext = request.getfixturevalue(name)
    grid = Grid.of(ext.tensor_power(3).ring, 4096)
    assert check_counit_route(ext, grid.rows()).any()


@pytest.mark.parametrize("name", ["gr42_over_z4", "gf9_over_f3", "rebased"])
def test_counit_route_on_samples(request, name):
    """A seeded 2048-element sample of S^⊗3, and the coboundaries B^2."""
    ext = amitsur_rebase(request.getfixturevalue("f4_over_f2")) if name == "rebased" else request.getfixturevalue(name)
    grid = Grid.of(ext.tensor_power(3).ring, 1 << 16)
    rng = np.random.default_rng(2048)
    rows = np.vstack([grid.rows_at(np.sort(rng.choice(grid.size, 2048, replace=False))), b2_rows(ext)])
    assert check_counit_route(ext, rows)[-1]


def test_counit_route_on_composite_sample():
    """A seeded sample of S^⊗3 and B^2 over Z/6[x]/(x²+x+1)/Z6, whose columns need a merge
    over Z/6, decided over Z/2 and Z/3 with no scalar Howell call."""
    ext = random_extension(6, [1, 1, 1], rebased=False)
    t3 = ext.tensor_power(3).ring
    rng = np.random.default_rng(6)
    rows = np.vstack([rng.integers(0, 6, (1024, t3.rank)), b2_rows(ext)[::8]])
    with scalar_calls() as spy:
        got = counit_solvable(ext, rows)
    assert spy.call_count == 0
    assert got.tolist() == [counit_solution(ext, u) is not None for u in rows]
    assert got[1024:].all()


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([4, 6, 8, 9, 12]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, n - 1), min_size=2, max_size=2).map(lambda c: c + [1]),
            st.booleans(),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_counit_route_on_random_extensions(case):
    """Random and coboundary elements over random quadratic extensions, plain and skewed."""
    n, poly, skew, seed = case
    try:
        ext = random_extension(n, poly, rebased=False)
    except ValueError:
        assume(False)
    rng = np.random.default_rng(seed)
    if skew:
        ext = skewed(ext, rng)
    t2, t3 = ext.tensor_power(2), ext.tensor_power(3)
    units = [w for w in rng.integers(0, n, (16, t2.rank)) if try_invert(t2.element(w)) is not None]
    rows = np.vstack([rng.integers(0, n, (128, t3.rank)), t3.one_vec()] + [delta1(ext, w) for w in units])
    assert check_counit_route(ext, rows)[128:].all()


def test_census_runs_no_scalar_solve(f4_over_f2):
    """The oracle of classify_all makes no per-element solve and no scalar Howell call."""
    classify_all(f4_over_f2, counit_oracle=False)  # residue fields and tables, once
    with scalar_calls() as spy:
        census = classify_all(f4_over_f2)
    assert census.counit_solvable is not None
    assert spy.call_count == 0


def test_census_oracle_memory_on_gf9(gf9_over_f3):
    """classify_all with the oracle over the 6561 elements of S^⊗3 of GF(9)/F3
    (6.5 MB; 16.6 MB with the eliminations unblocked)."""
    classify_all(gf9_over_f3, counit_oracle=False)
    tracemalloc.start()
    try:
        census = classify_all(gf9_over_f3, counit_oracle=True)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert census.counts["admits_counit"] == census.counts["almost_invertible"]
    assert peak <= 8.0


def test_census_checks_the_oracle(f2x2_over_f2):
    """A counit verdict that disagrees with almost invertibility is refused."""
    real = zmod.solvable_right_batch
    with mock.patch.object(zmod, "solvable_right_batch", lambda *args: ~real(*args)):
        with pytest.raises(InternalCheckError, match="counit oracle"):
            classify_all(f2x2_over_f2)
