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

import numpy as np
import pytest

from corings import zmod
from corings.rings import FiniteRing, _values
from tests.conftest import desk_extensions, random_extension
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
