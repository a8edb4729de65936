"""Residue-field projections against the per-idempotent loop they replaced.

`rings._residue_projections` takes the multiplication matrices of all
primitive idempotents of A/pA from one stacked `FiniteRing.mulmat`.  The
route it replaced, one `mulmat` per idempotent, is kept here as the oracle
(`per_idempotent_projections`).  `FiniteRing.residue_fields` must equal the
oracle's byte for byte on S^⊗1..3 of the desk fixtures and the rebased
(F4⊗F4)/F4, on S^⊗1..3 of quotient rings over Z/6 and Z/12 (two primes,
non-reduced factors among them), and on the rank-64 S^⊗3 of the compare
job's refinement (F4⊗F2[x]/(x²+x))/F2.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import rings, zmod
from corings.rings import FiniteRing, _values, make_quotient_ring, zmod_ring
from tests.conftest import desk_extensions, random_extension, simple_extension
from tests.test_kernels import finite_ring
from tests.test_table_paths import refined_extension


def per_idempotent_projections(a, frob):
    """rings._residue_projections as it was: one mulmat per idempotent."""
    p, r = a.n, a.rank
    eye = np.eye(r, dtype=np.int64)
    frob_k, q = frob, p
    while q < r:
        frob_k = zmod.matmul_mod(frob_k, frob, p)
        q *= p
    idems = a.one[None, :]
    berlekamp = zmod.howell((frob - eye) % p, p).k
    for y in berlekamp:
        shifted = (y[None, :] - np.outer(_values(a, y, len(berlekamp)), a.one)) % p
        deltas = (a.one[None, :] - a.pow_rows(shifted, p - 1)) % p
        prods = a.products(idems, deltas).reshape(-1, r)
        idems = prods[prods.any(axis=1)]
    out = []
    for e in idems:
        proj = zmod.matmul_mod(a.mulmat(e).T, frob_k, p)
        out.append(zmod.column_basis(proj, p))
    return out


def check_residue_fields(ring):
    blocks, fields, width = [], [], 0
    for p, frob in ring._frobenius.items():
        for proj in per_idempotent_projections(FiniteRing(p, ring.struct, ring.one, check=False), frob):
            blocks.append(proj)
            fields.append((p, width, width + proj.shape[1]))
            width += proj.shape[1]
    want = np.hstack(blocks) if blocks else np.zeros((ring.rank, 0), dtype=np.int64)
    got = ring.residue_fields
    assert got.proj.dtype == want.dtype and got.proj.shape == want.shape
    assert got.proj.tobytes() == want.tobytes() and got.fields == tuple(fields)


def test_residue_fields_of_desk_tensor_powers(request):
    for ext in desk_extensions(request):
        for m in (1, 2, 3):
            check_residue_fields(ext.tensor_power(m).ring)


@pytest.mark.parametrize(
    "n,poly",
    [(6, [1, 1, 1]), (6, [0, 1, 1]), (6, [0, 0, 1]), (12, [1, 0, 1]), (12, [3, 1, 1]), (12, [0, 0, 1])],
)
def test_residue_fields_over_composite_moduli(n, poly):
    ext = random_extension(n, poly, rebased=False)
    for m in (1, 2, 3):
        check_residue_fields(ext.tensor_power(m).ring)


def test_residue_fields_of_the_refined_third_power():
    ring = refined_extension().tensor_power(3).ring
    assert ring.rank == 64
    check_residue_fields(ring)


# -- candidate values: the roots of the minimal polynomial, or all of F_p ------------


def all_of_fp(a, y, t):
    """Every c in F_p as a candidate value of y, whatever p and t."""
    return np.arange(a.n, dtype=np.int64)


def fresh_residue_fields(ring, values):
    """residue_fields of a fresh copy of ring with rings._values replaced by
    values, and the number of calls made to it."""
    fresh = FiniteRing(ring.n, ring.struct, ring.one, check=False)
    with mock.patch.object(rings, "_values", side_effect=values) as spy:
        return fresh.residue_fields, spy.call_count


def check_both_routes(ring) -> int:
    """The default split (all of F_p when p <= t + 1, else `_values`) against
    the split that always finds the values (the oracle of check_residue_fields)
    and the one that always tries all of F_p; returns the default's `_values` calls."""
    check_residue_fields(ring)
    want, calls = fresh_residue_fields(ring, _values)
    got, _ = fresh_residue_fields(ring, all_of_fp)
    assert got.proj.shape == want.proj.shape and got.proj.tobytes() == want.proj.tobytes()
    assert got.fields == want.fields
    return calls


def route_extensions(request):
    gf25 = simple_extension(zmod_ring(5), make_quotient_ring(5, [2, 0, 1]))
    gf27 = simple_extension(zmod_ring(3), make_quotient_ring(3, [1, 2, 0, 1]))
    return desk_extensions(request) + [gf25, gf27]


def test_candidate_value_routes_on_tensor_powers(request):
    """S^⊗1..3 of the desk fixtures, (F4⊗F4)/F4, GF(25)/F5 and GF(27)/F3.
    Both routes are taken by the default split on these rings: a field of
    odd p has t = 1 < p - 1, and its higher powers split into many factors."""
    calls = [check_both_routes(ext.tensor_power(m).ring) for ext in route_extensions(request) for m in (1, 2, 3)]
    assert 0 in calls and any(calls)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 6, 8, 9, 12]).flatmap(finite_ring))
def test_candidate_value_routes_on_hypothesis_rings(ring):
    check_both_routes(ring)
