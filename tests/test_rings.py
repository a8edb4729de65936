"""Ring kernel: constructors, inverses, unit enumeration."""

import numpy as np
import pytest

from corings import zmod
from corings.rings import (
    RingTooLarge,
    enumerate_units,
    make_product_ring,
    make_quotient_ring,
    try_invert,
    zmod_ring,
)


def test_f4_defining_relation():
    f4 = make_quotient_ring(2, [1, 1, 1])
    a = f4.basis_element(1)
    assert (a * a).key() == (1, 1)  # a^2 = a + 1
    assert (a * a * a).is_one()  # a^3 = 1


def test_galois_ring_gr42():
    gr = make_quotient_ring(4, [1, 1, 1])
    assert gr.n == 4 and gr.rank == 2
    x = gr.basis_element(1)
    assert (x * x).key() == (3, 3)  # x^2 = -x - 1 mod 4


def test_split_quotient_has_idempotent():
    s = make_quotient_ring(2, [0, 1, 1])  # x^2 + x over F2
    x = s.basis_element(1)
    assert x * x == x


def test_non_monic_rejected():
    with pytest.raises(ValueError):
        make_quotient_ring(4, [1, 1, 2])  # leading coefficient 2 not a unit mod 4
    # unit leading coefficient is normalized instead
    r = make_quotient_ring(4, [1, 1, 3])
    assert r.rank == 2


def test_product_ring():
    f2 = zmod_ring(2)
    p = make_product_ring(f2, f2)
    assert p.rank == 2
    e0, e1 = p.basis_element(0), p.basis_element(1)
    assert e0 * e1 == p.zero()
    assert e0 * e0 == e0 and e1 * e1 == e1
    assert (e0 + e1).is_one()
    with pytest.raises(ValueError):
        make_product_ring(f2, zmod_ring(4))


def test_product_unit_count_multiplies():
    f4 = make_quotient_ring(2, [1, 1, 1])
    p = make_product_ring(f4, f4)
    assert len(enumerate_units(p)) == 9


def test_try_invert_f4():
    f4 = make_quotient_ring(2, [1, 1, 1])
    a = f4.basis_element(1)
    inv = try_invert(a)
    assert inv is not None and inv == a * a
    assert try_invert(f4.one_element()).is_one()


def test_try_invert_zero_divisor():
    s = make_quotient_ring(2, [0, 1, 1])
    assert try_invert(s.basis_element(1)) is None


def test_units_f4_and_f2x2():
    f4 = make_quotient_ring(2, [1, 1, 1])
    units = enumerate_units(f4)
    assert [u.key() for u in units] == [(0, 1), (1, 0), (1, 1)]
    s = make_quotient_ring(2, [0, 1, 1])
    assert [u.key() for u in enumerate_units(s)] == [(1, 0)]


def test_units_match_try_invert_exhaustively():
    for ring in (make_quotient_ring(4, [1, 1, 1]), make_quotient_ring(2, [0, 1, 1])):
        units = {u.key() for u in enumerate_units(ring)}
        from corings.rings import all_elements_array

        for row in all_elements_array(ring):
            e = ring.element(row)
            inv = try_invert(e)
            assert (inv is not None) == (e.key() in units)
            if inv is not None:
                assert (e * inv).is_one()


def test_unit_enumeration_cap():
    gr = make_quotient_ring(4, [1, 1, 1])
    with pytest.raises(RingTooLarge):
        enumerate_units(gr, cap=3)


def test_units_deterministic_across_jobs():
    gr = make_quotient_ring(4, [1, 1, 1])
    one_worker = [u.key() for u in enumerate_units(gr, jobs=1)]
    four_workers = [u.key() for u in enumerate_units(gr, jobs=4)]
    assert one_worker == four_workers
    assert len(one_worker) == 12  # |GR(4,2)*| = 16 - 4


def test_ring_validation_catches_bad_structure():
    import numpy as np

    from corings.rings import FiniteRing

    bad = np.zeros((2, 2, 2), dtype=np.int64)
    bad[0, 0, 0] = 1
    bad[0, 1, 1] = 1
    bad[1, 0, 0] = 1  # not commutative with [1,0]->e_0 but [0,1]->e_1
    with pytest.raises(ValueError):
        FiniteRing(2, bad, [1, 0])


def test_units_of_zmod_rings():
    from corings.rings import zmod_ring

    assert [u.key() for u in enumerate_units(zmod_ring(4))] == [(1,), (3,)]
    assert [u.key() for u in enumerate_units(zmod_ring(6))] == [(1,), (5,)]


def test_modulus_bound_refuses_instead_of_wrapping():
    """At n = 2^31 - 1 int64 arithmetic wraps: (n-2)(n-5) - (n-3)(n-7)
    comes out 0, not n - 11.  Such moduli are refused, and at the bound the
    product is exact on both multiplication paths."""
    with pytest.raises(ValueError, match="modulus"):
        make_quotient_ring(2**31 - 1, [1, 0, 1])
    n = zmod.MAX_MODULUS
    ring = make_quotient_ring(n, [1, 0, 1])  # x^2 = -1
    x = np.array([n - 2, n - 3])
    y = np.array([n - 5, n - 7])
    want = [n - 11, 29]
    assert ring.mul_vec(x, y).tolist() == want
    assert ring.mul_rows(x[None], y[None]).tolist() == [want]


def test_ring_validation_names_first_failing_unit_basis_element():
    """1 = e_0 fixes e_0 and kills e_1 and e_2: the unit law first fails at index 1."""
    from corings.rings import FiniteRing

    struct = np.zeros((3, 3, 3), dtype=np.int64)
    struct[0, 0, 0] = 1
    with pytest.raises(ValueError, match="unit law fails on basis element 1$"):
        FiniteRing(2, struct, [1, 0, 0])


def test_rank_cap_refuses_before_allocating(f4_over_f2):
    """Rank DEFAULT_RANK_CAP + 1 is refused by every constructor before its
    rank^3 table exists: a broadcast view stands in for the structure, and the
    product factors are tensor rings whose dense tables are never built."""
    from corings.rings import DEFAULT_RANK_CAP, FiniteRing

    r = DEFAULT_RANK_CAP + 1
    with pytest.raises(ValueError, match="rank cap"):
        FiniteRing(2, np.broadcast_to(np.int8(0), (r, r, r)), np.zeros(r, dtype=np.int64))
    with pytest.raises(ValueError, match="rank cap"):
        make_quotient_ring(2, [1] + [0] * (r - 1) + [1])
    big = f4_over_f2.tensor_power(9).ring  # rank 512
    with pytest.raises(ValueError, match="rank cap"):
        make_product_ring(big, big)
    assert "struct" not in vars(big)


# -- associativity check ------------------------------------------------------------


def loop_first_nonassociative(table, n):
    """The lex-first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), by one product per triple."""
    t = np.asarray(table, dtype=np.int64)
    for i, j, k in np.ndindex(t.shape):
        if ((t[i, j] @ t[:, k]) % n != (t[j, k] @ t[i]) % n).any():
            return i, j, k
    return None


@pytest.mark.parametrize("n", [2, 4, 6])
def test_first_nonassociative_matches_triple_loop_in_every_block(n, monkeypatch):
    """Random tables, one entry of an associative table changed, and the tables
    of quotient and product rings, with blocks of 1, 2 and 3 pairs and the default."""
    rng = np.random.default_rng(n)
    ring = make_product_ring(make_quotient_ring(n, [1, 1, 1]), make_quotient_ring(n, [0, 1]))
    tables = [ring.struct, make_quotient_ring(n, [1, 0, 1, 1]).struct]
    for r in (2, 3, 5):
        tables.append(rng.integers(0, n, (r, r, r)))
    spoiled = ring.struct.astype(np.int64)
    spoiled[1, 2, 0] = (spoiled[1, 2, 0] + 1) % n
    tables.append(spoiled)
    for table in tables:
        want = loop_first_nonassociative(table, n)
        r = len(table)
        for pairs in (1, 2, 3, None):
            if pairs is not None:
                monkeypatch.setattr(zmod, "BLOCK_ENTRIES", pairs * r * r)
            assert zmod.first_nonassociative(table, n) == want
            monkeypatch.undo()
    assert loop_first_nonassociative(tables[0], n) is None and loop_first_nonassociative(spoiled, n) is not None


def test_ring_validation_rejects_a_commutative_non_associative_table():
    """1, x, y with x x = y, x y = y x = x and y y = 0: (x x) x = x (x x) = x, but
    (x x) y = y y = 0 while x (x y) = x x = y."""
    from corings.rings import FiniteRing

    struct = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        struct[0, j, j] = struct[j, 0, j] = 1
    struct[1, 1, 2] = struct[1, 2, 1] = struct[2, 1, 1] = 1
    assert zmod.first_nonassociative(struct, 2) == loop_first_nonassociative(struct, 2) == (1, 1, 2)
    with pytest.raises(ValueError, match="multiplication is not associative$"):
        FiniteRing(2, struct, [1, 0, 0])


def test_quotient_ring_validation_peak_memory():
    """Validating Z/4[x]/(f) of degree 48 holds a few blocks, not rank^4 entries
    (164.7 MB traced with the two whole-table einsums it replaced)."""
    import tracemalloc

    coeffs = np.random.default_rng(48).integers(0, 4, 48).tolist() + [1]
    tracemalloc.start()
    try:
        ring = make_quotient_ring(4, coeffs)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert ring.rank == 48 and peak <= 16


def test_quotient_ring_holds_one_wide_table():
    """At degree 80 (512000 table entries) building and validating Z/4[x]/(f)
    holds one 8-byte table at a time: the small-integer table is indexed from
    the powers of x, and the int64 copy in FiniteRing goes before validation
    makes its float64 one (18.0 MB traced when all three were alive)."""
    import tracemalloc

    coeffs = np.random.default_rng(80).integers(0, 4, 80).tolist() + [1]
    tracemalloc.start()
    try:
        ring = make_quotient_ring(4, coeffs)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert ring.rank == 80 and peak <= 12
