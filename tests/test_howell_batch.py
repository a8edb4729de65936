"""The batched Howell elimination and the counit census against their scalar oracles.

`zmod.howell_batch` must return, for every system of a stack, exactly the
Howell rows and pivots of the scalar `zmod.howell`, and
`zmod.solvable_right_batch` exactly the verdict `solve_right(...) is not
None`.  `classify.counit_solvable` builds the counit systems of a whole batch
by one GEMM; it must agree with the per-element `counit_solution`.
"""

import tracemalloc
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corings import classify, zmod
from corings.amitsur import b2_rows, delta1
from corings.classify import classify_all, counit_solution, counit_solvable
from corings.extensions import amitsur_rebase
from corings.rings import Grid, InternalCheckError, try_invert
from tests.conftest import random_extension, skewed

MODULI = [2, 3, 4, 6, 8, 9, 12, 27, 64]


@lru_cache(maxsize=None)
def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_power(n):
    return len(zmod.prime_factors(n)) == 1


@contextmanager
def scalar_calls():
    """Counts the calls of the scalar `zmod.howell` inside the block."""
    with mock.patch.object(zmod, "howell", wraps=zmod.howell) as spy:
        yield spy


def check_batch(a, n):
    """howell_batch against howell, system by system; prime powers never fall back."""
    with scalar_calls() as spy:
        hb = zmod.howell_batch(a, n)
    if _prime_power(n):
        assert spy.call_count == 0
    bsz, _, k = a.shape
    assert hb.h.shape == (bsz, k, k) and hb.pivots.shape == (bsz, k)
    for i in range(bsz):
        hf = zmod.howell(a[i], n)
        r = len(hf.h)
        assert hb.h.dtype == np.int64 and (hb.h[i, :r] == hf.h).all() and not hb.h[i, r:].any()
        assert tuple(hb.pivots[i, :r]) == hf.pivots and (hb.pivots[i, r:] == -1).all()


def check_solvable(a, rhs, n):
    got = zmod.solvable_right_batch(a, rhs, n)
    each = np.broadcast_to(rhs, a.shape[:2])
    want = [zmod.solve_right(a[i], each[i], n) is not None for i in range(len(a))]
    assert got.tolist() == want


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


@settings(max_examples=250, deadline=None)
@given(stacks())
def test_howell_batch_matches_scalar(case):
    n, a = case
    check_batch(a, n)


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


@pytest.mark.parametrize("n", MODULI)
def test_one_by_one_systems(n):
    """Every 1×1 system a·x = b over Z/n, in one stack."""
    a, b = np.divmod(np.arange(n * n), n)
    check_batch(a[:, None, None], n)
    check_solvable(a[:, None, None], b[:, None], n)


@pytest.mark.parametrize("n", [6, 12, 64])
def test_zero_and_single_systems(n):
    check_batch(np.zeros((3, 2, 4), dtype=np.int64), n)
    hb = zmod.howell_batch(np.zeros((3, 2, 4)), n)
    assert not hb.h.any() and (hb.pivots == -1).all()
    check_batch(np.array([[[2, 1, 0], [0, 3, 1]]]), n)
    assert zmod.howell_batch(np.zeros((0, 2, 3)), n).h.shape == (0, 3, 3)
    check_solvable(np.zeros((2, 3, 2), dtype=np.int64), np.array([[0, 0, 0], [0, 1, 0]]), n)


@pytest.mark.parametrize(
    "column, n",
    [([2, 3], 6), ([3, 2], 6), ([4, 6, 9], 36), ([9, 6, 4], 36), ([6, 10, 15], 30), ([0, 6, 10, 15], 30)],
)
def test_merge_systems_fall_back_alone(column, n):
    """In a mixed stack only the systems whose column needs a merge go to the scalar kernel."""
    rng = np.random.default_rng(n + len(column))
    merge = np.hstack([np.array(column)[:, None], rng.integers(0, n, (len(column), 2))])
    plain = np.zeros_like(merge)
    plain[0] = [1, 2, 3]
    a = np.stack([plain, merge, np.zeros_like(merge), merge, plain])
    with scalar_calls() as spy:
        hb = zmod.howell_batch(a, n)
    assert spy.call_count == 2 and (hb.h[1, 0, 0], hb.pivots[1, 0]) == (1, 0)
    check_batch(a, n)
    # as systems A x = b the merge column is a row of A^T
    check_solvable(a.transpose(0, 2, 1), rng.integers(0, n, (len(a), 3)), n)


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
    with scalar_calls() as spy, mock.patch.object(classify, "counit_solution") as per_element:
        census = classify_all(f4_over_f2)
    assert census.counit_solvable is not None
    assert spy.call_count == 0 and per_element.call_count == 0


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
