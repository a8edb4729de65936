"""FiniteRing.mul_einsum against the three-operand einsum it replaced.

mul_einsum contracts the base table with the smaller operand, then takes one
two-operand product with the other.  ref_mul_einsum keeps the single
three-operand np.einsum over x, y and the table; the two must agree byte for
byte on every spec string the library passes, over bases of rank 1-3 and at
the largest modulus.  Basis multiples x·e_rho come from a stacked
FiniteRing.mulmat, checked here against ref_mul_einsum and products with
the identity, the routes that gave them before.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corings.extensions import amitsur_rebase
from corings.rings import make_product_ring, make_quotient_ring, zmod_ring
from tests.conftest import scaled_zmod, simple_extension


def ref_mul_einsum(ring, spec, x, y):
    """The former route: one np.einsum over x, y and the int64 table, reduced mod n."""
    ins, out = spec.split("->")
    a, b = ins.split(",")
    full = f"{a.replace('_', 'U')},{b.replace('_', 'V')},UVW->{out.replace('_', 'W')}"
    prods = np.einsum(full, x, y, ring.struct.astype(np.int64))
    prods %= ring.n
    return prods


BIG = 16381  # the largest prime below zmod.MAX_MODULUS
BASES = {
    "Z/5 on 2·1": scaled_zmod(5, 2),
    "Z/16381 on 3·1": scaled_zmod(BIG, 3),
    "F2xF2": make_product_ring(zmod_ring(2), zmod_ring(2)),
    "Z/4[x]/(x^2)": make_quotient_ring(4, [0, 0, 1]),
    "GF(4)": make_quotient_ring(2, [1, 1, 1]),
    "GR(4,2)": make_quotient_ring(4, [1, 1, 1]),
    "GF(8)": make_quotient_ring(2, [1, 1, 0, 1]),
    "Z/16381[x]/(x^3+5x+7)": make_quotient_ring(BIG, [7, 5, 0, 1]),
}

# every spec the library passes (algebras, coring, extensions), with the
# letters of the twisted-algebra products filled in for both sides; the
# basis multiples of the "T_r" and "T_p" specs come from a stacked mulmat
SPECS = [
    "Aij_,Bjk_->ABik_",
    "T_,Txi_->Txi_", "Txi_,Tjk_->Txijk_", "Txijk_,Tly_->Tijklxy_",
    "T_,Txk_->Txk_", "Txk_,Tli_->Txkli_", "Txkli_,Tjy_->Tijklxy_",
    "T_r,TaQ_->TraQ_", "TraQ_,TlL_->TQL_alr", "T_r,TaP_->TraP_", "TraP_,TKk_->TPK_akr",
    "T_r,TKj_->TrKj_", "TrKj_,TiL_->TKL_ijr", "T_r,TKk_->TrKk_", "TrKk_,TalI_->TIK_aklr",
    "T_p,TRi_->TpRi_", "TpRi_,Tjc_->TRc_ijp",
    "T_p,TiA_->TpiA_", "TpiA_,TjB_->TAB_ijp",
    "i_,ija_->aj_", "I_,J_->IJ_",
    "IJA_,ija_->IiJjAa_", "ab_,ijk_->iajbk_", "I_,i_->Ii_",
    "a_,d_->ad_", "ab_,de_->adbe_", "abc_,def_->adbecf_",
]


def operand_shapes(spec, rank, dims):
    """Shapes of the two operands: rank on "_" and dims[c] on each letter c."""
    return [tuple(rank if c == "_" else dims[c] for c in sub) for sub in spec.split("->")[0].split(",")]


def check(ring, spec, x, y):
    got = ring.mul_einsum(spec, x, y)
    want = ref_mul_einsum(ring, spec, x, y)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(BASES)),
    st.sampled_from(SPECS),
    st.dictionaries(st.sampled_from("TijklxyraQLPKcpRABIJdefbtq"), st.integers(0, 4)),
    st.sampled_from(["uniform", "top", "sparse"]),
    st.integers(0, 2**32 - 1),
)
@example("GF(4)", "ab_,ijk_->iajbk_", {c: 16 for c in "ijk"}, "uniform", 1)
@example("Z/16381[x]/(x^3+5x+7)", "ab_,ijk_->iajbk_", {c: 8 for c in "ijk"}, "top", 2)
@example("Z/16381 on 3·1", "IJA_,ija_->IiJjAa_", {**dict.fromkeys("IJA", 8), **dict.fromkeys("ija", 4)}, "top", 3)
@example("GR(4,2)", "TpiA_,TjB_->TAB_ijp", {"T": 32, **dict.fromkeys("piAjB", 3)}, "uniform", 4)
@example("Z/16381[x]/(x^3+5x+7)", "Aij_,Bjk_->ABik_", {"A": 16, "B": 16, **dict.fromkeys("ijk", 4)}, "top", 5)
@example("Z/16381[x]/(x^3+5x+7)", "ij_,jk_->ik_", dict.fromkeys("ijk", 9), "top", 6)
@example("Z/16381[x]/(x^3+5x+7)", "ab_,ij_->iajb_", dict.fromkeys("abij", 9), "top", 7)
def test_mul_einsum_matches_three_operand_einsum(name, spec, sizes, fill, seed):
    """Byte-identical results, int64 and C-contiguous: letters of length 0-4,
    and residues all n - 1 ("top") for the largest sums.  The explicit
    examples are large enough for the np.matmul route."""
    ring = BASES[name]
    dims = {c: sizes.get(c, 2) for c in "TijklxyraQLPKcpRABIJdefbtq"}
    xs, ys = operand_shapes(spec, ring.rank, dims)
    rng = np.random.default_rng(seed)
    if fill == "top":
        x, y = np.full(xs, ring.n - 1, dtype=np.int64), np.full(ys, ring.n - 1, dtype=np.int64)
    else:
        x, y = rng.integers(0, ring.n, xs), rng.integers(0, ring.n, ys)
        if fill == "sparse":
            x *= rng.random(xs) < 0.2
    check(ring, spec, x, y)


@pytest.mark.parametrize("name", sorted(BASES))
def test_mul_einsum_takes_small_integer_tables(name):
    """The base's own int8/int16 table as an operand (restrict_scalars)."""
    ring = BASES[name]
    rtable = np.random.default_rng(7).integers(0, ring.n, (6, 6, 6, ring.rank))
    check(ring, "ab_,ijk_->iajbk_", ring.struct, rtable)
    check(ring, "ab_,ijk_->iajbk_", ring.struct, rtable.astype(ring.struct.dtype))


@pytest.mark.parametrize("name", sorted(BASES))
def test_broadcast_products_without_row_letters(name):
    """Every product x_i y_j by broadcasting: the larger operand has no letter
    that the other lacks, so the matrix product has one row."""
    ring = BASES[name]
    rng = np.random.default_rng(11)
    x, y = rng.integers(0, ring.n, (32, 1, 2, ring.rank)), rng.integers(0, ring.n, (1, 32, 2, ring.rank))
    check(ring, "abi_,abi_->abi_", x, y)
    check(ring, "ab_,ab_->ab_", x[:, :, 0], y[:, :, 0])


# stacks of 0, 1 and several elements under 1 to 4 leading axes
STACKS = [(0,), (1,), (7,), (3, 0), (1, 1), (4, 3), (2, 3, 2), (1, 2, 1, 3)]


@pytest.mark.parametrize("lead", STACKS, ids=str)
@pytest.mark.parametrize("name", sorted(BASES))
def test_stacked_mulmat_matches_products_with_the_identity(name, lead):
    """A stack x of shape (..., r) gives (..., r, r), entry [..., k, j] the
    coordinate k of x·e_j: byte for byte the basis multiples of the routes
    it replaced, mul_einsum against the identity ("A_,j_->A_j", as
    ref_mul_einsum) and the float products(x, eye); and each matrix of a
    stack is the single-element matrix."""
    ring = BASES[name]
    r, eye = ring.rank, np.eye(ring.rank, dtype=np.int64)
    rng = np.random.default_rng(len(lead))
    for x in (rng.integers(0, ring.n, lead + (r,)), np.full(lead + (r,), ring.n - 1, dtype=np.int64)):
        got = ring.mulmat(x)
        assert got.dtype == np.int64 and got.shape == lead + (r, r)
        axes = "ABCD"[: len(lead)]
        want = ref_mul_einsum(ring, f"{axes}_,j_->{axes}_j", x, eye)
        assert got.tobytes() == want.tobytes()
        flat = ring.products(x.reshape(-1, r), eye).transpose(0, 2, 1)
        assert got.tobytes() == flat.reshape(got.shape).tobytes()
        for v, mat in zip(x.reshape(-1, r), got.reshape(-1, r, r)):
            assert ring.mulmat(v).tobytes() == mat.tobytes()


def rebased_f4():
    """A fresh (F4⊗F4)/F4, so nothing of it is cached yet; its base has rank 2."""
    return amitsur_rebase(simple_extension(zmod_ring(2), make_quotient_ring(2, [1, 1, 1])))


def test_tables_and_face_maps_pass_two_operands_to_einsum():
    ext = rebased_f4()
    real = np.einsum
    counts = []

    def counted(subscripts, *operands, **kwargs):
        counts.append(len(operands))
        return real(subscripts, *operands, **kwargs)

    with mock.patch.object(np, "einsum", counted):
        ring = ext.tensor_power(4).ring
        assert ring.struct.shape == (32, 32, 32)
        for m in (1, 2, 3):
            for i in range(1, m + 2):
                ext.face_map(m, i)
    assert counts and max(counts) <= 2


def test_dense_table_memory_over_rank_two_base():
    """Building the S^⊗4 table of (F4⊗F4)/F4 (32^3 entries, 256 KB as int64)
    peaks at no more than the three-operand route did: 0.559 MB traced with
    numpy 2.4.  np.matmul writes the product into its result through a
    strided view, and the table is written in the base's int8 dtype, one
    block of rows at a time."""
    ring = rebased_f4().tensor_power(4).ring
    tracemalloc.start()
    try:
        table = ring.struct
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert table.shape == (32, 32, 32) and peak <= 0.56

