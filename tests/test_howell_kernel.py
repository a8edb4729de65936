"""The column-at-a-time Howell kernel against a per-row reference elimination.

`ref_howell` clears each row below a pivot with its own unimodular 2x2 step
and reduces each row above one at a time.  The Howell rows and pivots are
canonical, so `zmod.howell` must return them exactly; the transform and
kernel rows may be another valid choice, so they are checked through what
they promise (t·a = h, k·a = 0, the kernel's span) and through every solver
that reads them.

`prev_howell` is the column-at-a-time kernel as it was before its rank-1
update touched only the rows it changes and before a prime modulus took the
first nonzero entry as the pivot: `zmod.howell` must return its h, t, k and
pivots byte for byte, and the rows-only elimination behind `column_basis`
and `is_invertible` its h.
"""

from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import zmod
from corings.coring import tilde_delta
from tests.conftest import refined_compare_corings

MODULI = [2, 3, 4, 6, 8, 9, 12, 30, 36, 1 << 14]


def ref_howell(a, n):
    """Howell form by per-row 2x2 updates below each pivot."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64) % n)
    nrows, ncols = a.shape
    h = a.copy()
    t = np.eye(nrows, dtype=np.int64)
    r = 0
    for c in range(ncols):
        m = h.shape[0]
        j = r
        while j < m and h[j, c] == 0:
            j += 1
        if j == m:
            continue
        if j > r:
            h[[r, j]] = h[[j, r]]
            t[[r, j]] = t[[j, r]]
        x = zmod.stab_unit(int(h[r, c]), n)
        if x != 1:
            h[r] = (x * h[r]) % n
            t[r] = (x * t[r]) % n
        for i in range(r + 1, m):
            if h[i, c] % n == 0:
                continue
            g, s_, t_ = zmod.gcdex(int(h[r, c]), int(h[i, c]))
            u_ = -(int(h[i, c]) // g)
            v_ = int(h[r, c]) // g
            row_r = (s_ * h[r] + t_ * h[i]) % n
            row_i = (u_ * h[r] + v_ * h[i]) % n
            h[r], h[i] = row_r, row_i
            row_r = (s_ * t[r] + t_ * t[i]) % n
            row_i = (u_ * t[r] + v_ * t[i]) % n
            t[r], t[i] = row_r, row_i
        b = int(h[r, c])
        for i in range(r):
            q = int(h[i, c]) // b
            if q:
                h[i] = (h[i] - q * h[r]) % n
                t[i] = (t[i] - q * t[r]) % n
        if b > 1:
            x = n // b
            h = np.vstack([h, (x * h[r]) % n])
            t = np.vstack([t, (x * t[r]) % n])
        r += 1
    nonzero = h.any(axis=1)
    hn = h[:r][nonzero[:r]] if r else h[:0]
    k = t[r:]
    k = k[k.any(axis=1)]
    tn = t[:r][nonzero[:r]] if r else t[:0]
    pivots = tuple(int(np.nonzero(row)[0][0]) for row in hn)
    return zmod.HowellForm(hn, tn, k, pivots)


def prev_howell(a, n):
    """zmod.howell before the touched-rows update and the prime pivot."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64) % n)
    nrows, ncols = a.shape
    w = np.zeros((nrows + ncols, ncols + nrows), dtype=np.int64)
    w[:nrows, :ncols] = a
    w[:nrows, ncols:] = np.eye(nrows, dtype=np.int64)
    composite = len(zmod.prime_factors(n)) > 1
    m = nrows
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        g = np.gcd(w[r:m, c], n)
        j = r + int(g.argmin())
        if g[j - r] == n:
            continue
        if j > r:
            w[[r, j]] = w[[j, r]]
        if composite and (g % g[j - r]).any():
            for i in range(r + 1, m):
                hr, hi = int(w[r, c]), int(w[i, c])
                if hi % np.gcd(hr, n):
                    d, x, y = zmod.gcdex(hr, hi)
                    w[[r, i], c:] = (np.array([[x, y], [-(hi // d), hr // d]]) @ w[[r, i], c:]) % n
        b = int(w[r, c])
        if n % b:
            w[r, c:] = (zmod.stab_unit(b, n) * w[r, c:]) % n
            b = int(w[r, c])
        q = w[:m, c] // b
        q[r] = 0
        w[:m, c:] = (w[:m, c:] - np.multiply.outer(q, w[r, c:])) % n
        if b > 1:
            w[m, c:] = ((n // b) * w[r, c:]) % n
            m += 1
        pivots.append(c)
    r = len(pivots)
    k = w[r:m, ncols:]
    return zmod.HowellForm(w[:r, :ncols].copy(), w[:r, ncols:].copy(), k[k.any(axis=1)], tuple(pivots))


@contextmanager
def oracle():
    """Every zmod solver, run on the reference elimination."""
    with mock.patch.object(zmod, "howell", ref_howell), \
            mock.patch.object(zmod, "_howell_rows", lambda a, n: ref_howell(a, n).h):
        yield


@lru_cache(maxsize=None)
def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def sparse_matrices(draw, max_side=12):
    """(n, a): mostly-zero entries, each row times a divisor of n."""
    n = draw(st.sampled_from(MODULI))
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    entry = st.one_of(st.just(0), st.integers(0, n - 1))
    a = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    scale = np.array(draw(st.lists(st.sampled_from(_divisors(n)), min_size=rows, max_size=rows)))
    return n, (a * scale[:, None]) % n


def _same_span(x, y, n):
    hx, hy = zmod.howell(x, n).h, zmod.howell(y, n).h
    return hx.shape == hy.shape and bool((hx == hy).all())


def check_against_oracle(a, n):
    hf, ref = zmod.howell(a, n), ref_howell(a, n)
    assert hf.h.dtype == np.int64 and hf.h.shape == ref.h.shape and (hf.h == ref.h).all()
    assert hf.pivots == ref.pivots
    assert hf.t.shape == (len(hf.h), a.shape[0])
    assert ((hf.t @ a) % n == hf.h).all()
    assert not ((hf.k @ a) % n).any()
    assert _same_span(hf.k, ref.k, n)
    assert zmod.span_size(hf, n) == zmod.span_size(ref, n)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_howell_matches_reference(case):
    n, a = case
    check_against_oracle(a, n)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_solvers_match_reference(case, data):
    n, a = case
    rows, cols = a.shape
    x0 = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=cols, max_size=cols)))
    b_any = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)))
    other = np.vstack([a[::-1], (a[0] * data.draw(st.integers(0, n - 1))) % n])
    square = a[: min(rows, cols), : min(rows, cols)]
    with oracle():
        ref_kernel = zmod.kernel_right(a, n)
        ref_solvable = [zmod.solve_right(a, b, n) is not None for b in ((a @ x0) % n, b_any)]
        ref_same = zmod.same_row_span(a, other, n)
        ref_invertible = zmod.is_invertible(square, n)
        ref_inverse = zmod.inverse_matrix(square, n) if ref_invertible else None

    kernel = zmod.kernel_right(a, n)
    assert not ((a @ kernel.T) % n).any()
    assert _same_span(kernel, ref_kernel, n)
    for b, solvable in zip(((a @ x0) % n, b_any), ref_solvable):
        x = zmod.solve_right(a, b, n)
        assert (x is not None) == solvable
        if x is not None:
            assert ((a @ x) % n == b).all()
    assert zmod.same_row_span(a, other, n) == ref_same
    assert zmod.is_invertible(square, n) == ref_invertible
    if ref_invertible:
        assert (zmod.inverse_matrix(square, n) == ref_inverse).all()
    else:
        with pytest.raises(ValueError):
            zmod.inverse_matrix(square, n)


@pytest.mark.parametrize(
    "column, n",
    [([2, 3], 6), ([3, 2], 6), ([4, 6, 9], 36), ([9, 6, 4], 36), ([6, 10, 15], 30), ([0, 6, 10, 15], 30)],
)
def test_merge_columns(column, n):
    """No single entry generates the column's ideal, so rows must merge."""
    a = np.array(column)[:, None]
    assert (zmod.howell(a, n).h == [[1]]).all()
    check_against_oracle(a, n)
    # the same column under a dense tail, and below a pivot column
    rng = np.random.default_rng(sum(column) + n)
    tail = rng.integers(0, n, size=(len(column), 3))
    check_against_oracle(np.hstack([a, tail]), n)
    head = np.column_stack([np.ones(len(column) + 1, dtype=np.int64), [0] + column])
    check_against_oracle(np.hstack([head, rng.integers(0, n, size=(len(column) + 1, 2))]), n)


def test_howell_rows_and_reduction_above():
    """A zero-divisor pivot adds its Howell row; rows above are reduced mod the pivot."""
    hf = zmod.howell([[2, 1]], 4)
    assert hf.h.tolist() == [[2, 1], [0, 2]] and hf.pivots == (0, 1)
    check_against_oracle(np.array([[2, 1]]), 4)
    hf = zmod.howell([[1, 3], [0, 2]], 4)
    assert hf.h.tolist() == [[1, 1], [0, 2]]
    check_against_oracle(np.array([[1, 3], [0, 2]]), 4)


def test_empty_and_zero_inputs():
    for a in (np.zeros((3, 4), dtype=np.int64), np.zeros((0, 4), dtype=np.int64)):
        hf = zmod.howell(a, 12)
        assert hf.h.shape == (0, 4) and hf.pivots == ()
        assert hf.t.shape == (0, len(a)) and len(hf.k) == len(a)


# -- the kernel against its previous version -------------------------------------------


def _same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def check_against_prev(a, n):
    hf, prev = zmod.howell(a, n), prev_howell(a, n)
    for got, want in zip(hf[:3], prev[:3]):
        assert _same_bytes(got, want)
    assert hf.pivots == prev.pivots and all(type(c) is int for c in hf.pivots)
    assert _same_bytes(zmod._howell_rows(a, n), prev.h)
    assert _same_bytes(zmod.column_basis(np.asarray(a).T, n), prev.h.T)
    if a.shape[0] == a.shape[1]:
        m = len(a)
        assert zmod.is_invertible(a, n) == (prev.h.shape == (m, m) and (prev.h == np.eye(m)).all())


@st.composite
def deficient_matrices(draw):
    """(n, a): sparse matrices, some with zero columns, repeated and combined rows."""
    n, a = draw(sparse_matrices())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = a.copy()
    a[:, rng.random(a.shape[1]) < draw(st.sampled_from([0.0, 0.3]))] = 0
    extra = draw(st.integers(0, 3))
    if extra and len(a):
        combos = rng.integers(0, n, (extra, len(a)))
        a = np.vstack([a, (combos @ a) % n])
    return n, a


@settings(max_examples=300, deadline=None)
@given(deficient_matrices())
def test_howell_matches_previous_kernel(case):
    n, a = case
    check_against_prev(a, n)


@pytest.mark.parametrize("n", MODULI)
def test_zero_and_square_inputs_match_previous_kernel(n):
    rng = np.random.default_rng(n)
    for a in (
        np.zeros((3, 4), dtype=np.int64),
        np.zeros((0, 4), dtype=np.int64),
        np.eye(5, dtype=np.int64),
        rng.integers(0, n, (6, 6)),
        np.triu(rng.integers(0, n, (6, 6))),
    ):
        check_against_prev(a, n)


def test_refined_compare_matrices_match_previous_kernel():
    """The 64×64 tilde-Delta and one more mulmat in S^⊗3 of the refined compare corings."""
    for refined in refined_compare_corings():
        mat = tilde_delta(refined)
        assert mat.shape == (64, 64)
        check_against_prev(mat, 2)
        assert zmod.is_invertible(mat, 2) == refined.twist.is_unit
        units = refined.ext.tensor_power(3).ring.mulmat(np.arange(64) % 2)
        check_against_prev(units, 2)
