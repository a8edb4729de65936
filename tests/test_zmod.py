"""Howell-form linear algebra over Z/nZ, checked against brute-force oracles."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import zmod


def brute_left_kernel(a, n):
    """All x with x @ a == 0 mod n, by exhaustive enumeration."""
    rows = a.shape[0]
    sols = []
    for x in itertools.product(range(n), repeat=rows):
        if not (np.array(x) @ a % n).any():
            sols.append(x)
    return sols


def brute_row_span(a, n):
    rows = a.shape[0]
    span = set()
    for x in itertools.product(range(n), repeat=rows):
        span.add(tuple(np.array(x) @ a % n))
    return span


small_matrix = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(1, 3),
        st.integers(1, 3),
    ).flatmap(
        lambda t: st.tuples(
            st.just(t[0]),
            st.lists(
                st.lists(st.integers(0, t[0] - 1), min_size=t[2], max_size=t[2]),
                min_size=t[1],
                max_size=t[1],
            ),
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_howell_against_brute_force(case):
    n, rows = case
    a = np.array(rows, dtype=np.int64) % n
    hf = zmod.howell(a, n)
    # transform produces the form
    assert ((hf.t @ a) % n == hf.h).all()
    # kernel rows really annihilate
    if hf.k.size:
        assert not ((hf.k @ a) % n).any()
    # kernel rows span the whole left kernel
    ker_hf = zmod.howell(hf.k, n) if hf.k.size else None
    for x in brute_left_kernel(a, n):
        if not any(x):
            continue
        assert ker_hf is not None and zmod.in_row_span(ker_hf, x, n)
    # Howell rows span the same module as the original rows
    span = brute_row_span(a, n)
    assert brute_row_span(hf.h, n) == span if hf.h.size else {tuple([0] * a.shape[1])} == span
    assert zmod.span_size(hf, n) == len(span)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_howell_is_canonical(case):
    """Any two matrices with equal row span get identical Howell rows."""
    n, rows = case
    a = np.array(rows, dtype=np.int64) % n
    hf = zmod.howell(a, n)
    # shuffle rows, add a random combination: same span
    b = np.vstack([a[::-1], (a.sum(axis=0)) % n])
    assert zmod.same_row_span(a, b, n)
    hf2 = zmod.howell(b, n)
    assert hf.h.shape == hf2.h.shape and (hf.h == hf2.h).all()


def test_solve_right_exhaustive_mod4():
    rng = np.random.default_rng(7)
    n = 4
    for _ in range(60):
        a = rng.integers(0, n, size=(3, 3))
        for b in itertools.product(range(n), repeat=3):
            x = zmod.solve_right(a, np.array(b), n)
            solvable = any(
                tuple((a @ np.array(v)) % n) == b for v in itertools.product(range(n), repeat=3)
            )
            if x is None:
                assert not solvable
            else:
                assert tuple((a @ x) % n) == b


def test_kernel_right_mod12():
    a = np.array([[2, 4], [6, 0]])
    k = zmod.kernel_right(a, 12)
    if k.size:
        assert not ((a @ k.T) % 12).any()
    ker_hf = zmod.howell(k, 12)
    for x in itertools.product(range(12), repeat=2):
        if not ((a @ np.array(x)) % 12).any() and any(x):
            assert zmod.in_row_span(ker_hf, x, 12)


def test_inverse_matrix():
    rng = np.random.default_rng(3)
    n = 12
    found = 0
    while found < 10:
        a = rng.integers(0, n, size=(3, 3))
        if not zmod.is_invertible(a, n):
            continue
        found += 1
        inv = zmod.inverse_matrix(a, n)
        assert ((a @ inv) % n == np.eye(3, dtype=np.int64)).all()
        assert ((inv @ a) % n == np.eye(3, dtype=np.int64)).all()


def test_is_invertible_against_det():
    from math import gcd

    rng = np.random.default_rng(11)
    for n in (2, 4, 6, 12):
        for _ in range(40):
            a = rng.integers(0, n, size=(3, 3))
            det = int(round(np.linalg.det(a.astype(float))))
            assert zmod.is_invertible(a, n) == (gcd(det % n, n) == 1)


def test_batch_nonsingular_matches_scalar():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        mats = rng.integers(0, p, size=(200, 4, 4))
        mask = zmod.batch_nonsingular(mats, p)
        for m, ok in zip(mats, mask):
            det = int(round(np.linalg.det(m.astype(float)))) % p
            assert ok == (det != 0)


def test_prime_stacks_have_no_slot_rows():
    """Over a prime the stack is the systems' rows, padded with zero rows up to
    the eliminated columns; over a proper prime power one slot row per column.

    System 0 reaches full row rank (2 rows: A^T and [b | 1]) after column 1
    while system 1 still has pivots in columns 2 and 3."""
    for q, rows, ncols, want in ((3, 2, 4, 4), (3, 5, 4, 5), (9, 2, 4, 6), (2, 8, 8, 8)):
        w, rank = zmod._eliminate(np.zeros((1, rows, ncols + 1), dtype=np.int64), q, ncols)
        assert w.shape == (1, want, ncols + 1) and rank.tolist() == [0]
    a = np.zeros((2, 4, 1), dtype=np.int64)
    a[0, 0, 0] = a[1, 2, 0] = 1
    rhs = np.array([[0, 1, 0, 0], [0, 0, 0, 1]])
    assert zmod.solvable_right_batch(a, rhs, 3).tolist() == [False, False]
    assert zmod.solvable_right_batch(a, [1, 0, 0, 0], 3).tolist() == [True, False]
    for n in (3, 9):
        mixed = np.concatenate([a, a * 2 % n])
        each = np.vstack([rhs, rhs])
        want = [zmod.solve_right(mixed[i], each[i], n) is not None for i in range(4)]
        assert zmod.solvable_right_batch(mixed, each, n).tolist() == want


def test_stab_unit():
    from math import gcd

    for n in (2, 4, 9, 12, 30):
        for a in range(n):
            x = zmod.stab_unit(a, n)
            assert gcd(x, n) == 1
            if a:
                assert (x * a) % n == gcd(a, n)


def test_solve_right_rectangular():
    """Over- and under-determined systems mod 4 and mod 6, vs brute force."""
    rng = np.random.default_rng(13)
    for n in (4, 6):
        for shape in ((4, 2), (2, 4)):
            for _ in range(25):
                a = rng.integers(0, n, size=shape)
                b = rng.integers(0, n, size=shape[0])
                x = zmod.solve_right(a, b, n)
                solvable = any(
                    tuple((a @ np.array(v)) % n) == tuple(b)
                    for v in itertools.product(range(n), repeat=shape[1])
                )
                if x is None:
                    assert not solvable
                else:
                    assert (((a @ x) % n) == b % n).all()
