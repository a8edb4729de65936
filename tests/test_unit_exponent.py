"""Inverses by a power of the unit exponent against the Howell solve they replaced.

`rings.try_invert(x)` is x^(L-1), kept when x·x^(L-1) = 1, with
L = `FiniteRing.unit_exponent` built from the Frobenius of A/pA.  The route
it replaced, one `zmod.solve_right` of the multiplication matrix against 1,
is kept here as the oracle (`howell_invert`).  Both answers must agree byte
for byte, None included, on every element of S^⊗1..3 of the desk fixtures
(GR(4,2)/Z4 at level 3 on every 16th element in lex order and on all of Z²),
on S^⊗1..2 of the rebased (F4⊗F4)/F4, and on hypothesis quotient and
product rings over n in {4, 6, 8, 9, 12, 27, 64}, non-reduced ones among
them.  try_invert runs under a guard that fails on any Howell call.  Every
enumerated unit must satisfy u^L = 1, and on small rings L must be a
multiple of the exponent of the unit group found by brute force.  The moduli
27 and 64 catch an exponent that holds only when pA = 0, and F2[x]/(x^2)
one that ignores the nilpotent part of A/pA.  Rings whose L is longer than
POWER_BITS (a residue degree lcm F in the thousands, or a large p) are
inverted by one solve after a bounded walk, and a rank-64 inverse caches no
float64 table.  The Frobenius matrix, built by square-and-multiply on blocks
of basis elements, is compared with the route it replaced, one `pow_vec`
per basis element (`rowwise_frobenius`).
"""

import tracemalloc
from functools import reduce
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import amitsur, zmod
from corings.amitsur import b2_rows, compute_h2
from corings.extensions import Extension, amitsur_rebase
from corings.rings import (
    POWER_BITS,
    InternalCheckError,
    all_elements_array,
    enumerate_units,
    make_product_ring,
    make_quotient_ring,
    try_invert,
    zmod_ring,
)
from tests.conftest import DESK, simple_extension

MODULI = [4, 6, 8, 9, 12, 27, 64]

# (modulus, polynomial, unit exponent L)
KNOWN = [
    (2, [1, 1, 1], 3),  # F4
    (2, [0, 0, 1], 2),  # F2[x]/(x^2): s = 1
    (2, [0, 0, 0, 1], 4),  # F2[x]/(x^3): s = 2
    (4, [1, 1, 1], 6),  # GR(4, 2)
    (4, [0, 0, 1], 4),  # Z/4[x]/(x^2)
    (6, [2, 0, 1], 2),  # Z/6[x]/(x^2 + 2): F2[x]/(x^2) times F3 x F3
    (9, [0, 0, 1], 18),  # Z/9[x]/(x^2)
    (27, [0, 1], 18),  # Z/27: 4^6 = 19, so p^(k-1) is needed
    (64, [0, 1], 32),  # Z/64: 5^8 = 33
    (12, [0, 1], 2),
]


def howell_invert(x):
    """The inverse try_invert replaced: one Howell solve of mulmat(x) y = 1."""
    ring = x.ring
    sol = zmod.solve_right(ring.mulmat(x.coeffs), ring.one, ring.n)
    return None if sol is None else ring.element(sol)


def rowwise_frobenius(ring):
    """For each prime p | n, the matrix with row j = e_j^p mod p, one pow_vec per basis element."""
    basis = np.eye(ring.rank, dtype=np.int64)
    return {p: np.array([ring.pow_vec(e, p) for e in basis]) % p for p in zmod.prime_factors(ring.n)}


def check_frobenius(ring):
    """The Frobenius against rowwise_frobenius; building it builds no float64 table."""
    had_float = "_float_struct" in vars(ring)
    got, want = ring._frobenius, rowwise_frobenius(ring)
    assert list(got) == list(want)
    for p in want:
        assert got[p].dtype == want[p].dtype and got[p].tobytes() == want[p].tobytes()
    assert ("_float_struct" in vars(ring)) == had_float


def check_inverses(ring, rows):
    """try_invert on each row, under a guard on Howell, against howell_invert."""
    elements = [ring.element(row) for row in rows]
    with mock.patch.object(zmod, "howell", side_effect=AssertionError("try_invert ran a Howell form")):
        got = [try_invert(x) for x in elements]
    for x, inv in zip(elements, got):
        want = howell_invert(x)
        if want is None:
            assert inv is None, x
        else:
            assert inv is not None, x
            assert inv.coeffs.dtype == want.coeffs.dtype and inv.coeffs.tobytes() == want.coeffs.tobytes(), x


def check_exponent(ring):
    """u^L = 1 on every unit, in one batch."""
    units = enumerate_units(ring, as_array=True)
    powers = ring.pow_rows(units, ring.unit_exponent)
    assert (powers == ring.one).all()


def brute_force_exponent(ring):
    """lcm of the orders of the units, each by repeated multiplication."""
    orders = []
    for u in enumerate_units(ring, as_array=True):
        x, k = u, 1
        while (x != ring.one).any():
            x, k = ring.mul_vec(x, u), k + 1
        orders.append(k)
    return reduce(lcm, orders, 1)


@pytest.mark.parametrize("n, poly, expected", KNOWN, ids=[f"{n}-{p}" for n, p, _ in KNOWN])
def test_unit_exponent_of_small_rings(n, poly, expected):
    ring = make_quotient_ring(n, poly)
    assert ring.unit_exponent == expected
    assert ring.unit_exponent % brute_force_exponent(ring) == 0
    check_exponent(ring)
    check_inverses(ring, all_elements_array(ring))


@pytest.mark.parametrize("name", DESK)
def test_try_invert_matches_howell_on_desk_tensor_powers(request, name):
    ext = request.getfixturevalue(name)
    for m in (1, 2, 3):
        ring = ext.tensor_power(m).ring
        rows = all_elements_array(ring)
        if name == "gr42_over_z4" and m == 3:
            rows = np.vstack([rows[::16], compute_h2(ext).z2])
        check_frobenius(Extension(ext.base, ext.top, ext.eta, ext.basis).tensor_power(m).ring)
        check_inverses(ring, rows)
        check_exponent(ring)


def test_try_invert_matches_howell_on_the_rebased_extension(f4_over_f2):
    ext = amitsur_rebase(f4_over_f2)
    for m in (1, 2):
        ring = ext.tensor_power(m).ring
        check_inverses(ring, all_elements_array(ring))
        check_exponent(ring)


def gf16_over_f2():
    return simple_extension(zmod_ring(2), make_quotient_ring(2, [1, 1, 0, 0, 1]))  # x^4 + x + 1


def test_unit_exponent_of_gf16_tensor_square():
    """S⊗S of GF(16)/F2 is F16^4: b2_rows inverts by v^14, not by v^(|U|-1) = v^50624."""
    t2 = gf16_over_f2().tensor_power(2).ring
    assert t2.unit_exponent == 15
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 2, (64, t2.rank))
    check_inverses(t2, rows)


@st.composite
def small_rings(draw):
    """Quotient and product rings over MODULI with at most 1024 elements;
    x^2 and x^3 (non-reduced) are among the polynomials."""
    n = draw(st.sampled_from(MODULI))
    max_degree = max(d for d in (1, 2, 3) if n**d <= 1024)

    def quotient(degree):
        nilpotent = [0] * degree + [1]
        coeffs = st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree).map(lambda c: c + [1])
        return make_quotient_ring(n, draw(st.one_of(st.just(nilpotent), coeffs)))

    degree = draw(st.integers(1, max_degree))
    ring = quotient(degree)
    if degree < max_degree and draw(st.booleans()):
        ring = make_product_ring(ring, quotient(draw(st.integers(1, max_degree - degree))))
    return ring


def test_frobenius_of_large_rank_matches_rowwise():
    """Several blocks of basis elements (zmod.BLOCK_ENTRIES matrix entries
    hold 32 rows at rank 64 and 36 at rank 60), and squarings by a stacked
    mulmat (p = 5 and 7)."""
    rng = np.random.default_rng(11)
    for n, degree in ((2, 64), (5, 60), (7, 20), (12, 40)):
        check_frobenius(make_quotient_ring(n, list(rng.integers(0, n, degree)) + [1]))


@settings(max_examples=30, deadline=None)
@given(small_rings())
def test_try_invert_matches_howell_on_random_rings(ring):
    check_frobenius(ring)
    check_inverses(ring, all_elements_array(ring))
    check_exponent(ring)
    assert ring.unit_exponent % brute_force_exponent(ring) == 0


def test_b2_rows_unit_count_cross_check_trips(f4_over_f2, monkeypatch):
    """A unit enumeration that loses a unit disagrees with n^r · prod(1 - 1/q_i)."""
    ext = f4_over_f2
    fresh = Extension(ext.base, ext.top, ext.eta, ext.basis)  # its own memo, no cached B^2
    honest = amitsur.enumerate_units
    monkeypatch.setattr(amitsur, "enumerate_units", lambda *a, **k: honest(*a, **k)[1:])
    with pytest.raises(InternalCheckError, match="units enumerated"):
        b2_rows(fresh)
    monkeypatch.setattr(amitsur, "enumerate_units", honest)
    assert (b2_rows(fresh) == b2_rows(ext)).all()


def test_b2_rows_inverse_check_trips(f4_over_f2, monkeypatch):
    """A wrong unit exponent gives wrong inverses, and b2_rows says so; with
    no exponent (a long L) it inverts by Lagrange and gets the same B^2."""
    ext = f4_over_f2
    fresh = Extension(ext.base, ext.top, ext.eta, ext.basis)
    t2 = fresh.tensor_power(2).ring
    monkeypatch.setattr(t2, "unit_exponent", t2.unit_exponent - 1)
    with pytest.raises(InternalCheckError, match=r"v·v\^\(L-1\) != 1"):
        b2_rows(fresh)
    monkeypatch.setattr(t2, "unit_exponent", None)
    assert (b2_rows(fresh) == b2_rows(ext)).all()


def gf2_poly_product(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] ^= a & b
        out = prod
    return out


def counting(name):
    """A mock that counts the calls of zmod.<name> and passes them through."""
    return mock.patch.object(zmod, name, side_effect=getattr(zmod, name))


def test_large_residue_degree_ring_inverts_by_one_solve():
    """Z/2[x]/(f), f the product of irreducibles of degrees 2, 3, 5, 7, 11:
    rank 28, F = lcm = 2310, so L would have 2310 bits.  The period walk
    stops after POWER_BITS steps and each inverse is one Howell solve, where
    an unbounded walk takes 2310 products and x^(L-1) about 2310 mulmats."""
    degrees_2_3_5_7_11 = [[1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 0, 0, 1], [1, 1, 0, 0, 0, 0, 0, 1], [1, 0, 1] + [0] * 8 + [1]]
    f = gf2_poly_product(*degrees_2_3_5_7_11)
    ring = make_quotient_ring(2, f)
    assert ring.rank == 28
    with counting("matmul_mod") as products:
        assert ring.unit_exponent is None
    assert products.call_count <= POWER_BITS + 8  # t <= 5 powers, the walk, one check
    rng = np.random.default_rng(5)
    x = np.zeros(ring.rank, dtype=np.int64)
    x[:2] = 1  # 1 + x: a unit, no factor has the root 1
    factor = np.zeros(ring.rank, dtype=np.int64)
    factor[:3] = 1  # x^2 + x + 1 divides f: not a unit
    rows = np.vstack([x, factor, rng.integers(0, 2, (14, ring.rank))])
    for row in rows:
        element = ring.element(row)
        with counting("howell") as solves:
            inv = try_invert(element)
        assert solves.call_count == 1
        want = howell_invert(element)
        assert (inv is None) == (want is None)
        if inv is not None:
            assert inv.coeffs.tobytes() == want.coeffs.tobytes()
            assert ((inv * element).coeffs == ring.one).all()
    assert try_invert(ring.element(x)) is not None
    assert try_invert(ring.element(factor)) is None


def test_unit_exponent_at_the_power_bits_bound():
    """F2[x]/(f8 f3) = F256 x F8 has L = 2^24 - 1, exactly POWER_BITS bits;
    a factor x^2 adds s = 1, so L = 2 (2^24 - 1) is one bit too long."""
    f8, f3 = [1, 1, 0, 1, 1, 0, 0, 0, 1], [1, 1, 0, 1]  # x^8+x^4+x^3+x+1, x^3+x+1
    assert POWER_BITS == 24
    assert make_quotient_ring(2, gf2_poly_product(f8, f3)).unit_exponent == 2**24 - 1
    assert make_quotient_ring(2, gf2_poly_product(f8, f3, [0, 0, 1])).unit_exponent is None


def test_large_prime_quadratic_field_inverts_by_one_solve():
    """F_p[x]/(x^2 - 2) = F_(p^2) for p = 16381: L = p^2 - 1 has 28 bits, so
    the walk stops after POWER_BITS // 13 = 1 step and try_invert solves."""
    p = zmod.MAX_MODULUS - 3
    ring = make_quotient_ring(p, [p - 2, 0, 1])
    assert ring.unit_exponent is None
    assert zmod_ring(p).unit_exponent == p - 1
    rng = np.random.default_rng(6)
    for row in rng.integers(0, p, (8, 2)):
        element = ring.element(row)
        inv, want = try_invert(element), howell_invert(element)
        assert inv.coeffs.tobytes() == want.coeffs.tobytes()


def test_rank_64_inverse_caches_no_float_table():
    """try_invert on S^⊗3 of GF(16)/F2 (rank 64) builds the Frobenius from
    the small-integer table: it keeps no rank^3 float64 table, retains less
    than r^3/4 bytes (the Frobenius, r^2 int64) and peaks below 10 r^3 bytes,
    as one multiplication matrix of a dense element does (about 6 r^3)."""
    ring = gf16_over_f2().tensor_power(3).ring
    r3 = ring.rank**3
    ring.struct  # the int8 table try_invert has always read
    x = ring.element(np.random.default_rng(7).integers(0, 2, ring.rank))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inv = try_invert(x)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.unit_exponent == 15
    assert "_float_struct" not in ring.__dict__
    assert after - before < r3 / 4
    assert peak - before < 10 * r3
    want = howell_invert(x)
    assert (inv is None) == (want is None)
    assert inv is None or inv.coeffs.tobytes() == want.coeffs.tobytes()
