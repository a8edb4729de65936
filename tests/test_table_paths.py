"""One r^3-byte table per ring, against the int64 and float64 routes it replaced.

A ring's small-integer table (`FiniteRing.struct`, int8 or int16) is the only
table-sized array it builds or keeps.  The ref_ functions below keep the
former routes: tables built as int64 arrays (the tensor table as one int64
einsum chain restricted by one int64 contraction, `restrict_scalars` over
the whole R-valued table, `FiniteRing` and `make_product_ring` through an
int64 copy reduced with %), products through an int64 or a whole float64
copy of the table, and `first_nonassociative` over a whole float64 copy.
Every new path must give the same bytes, also with zmod.BLOCK_ENTRIES
patched down so that rank-8 and rank-16 tables take the multi-block paths.
"""

import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from corings import algebras, cli, zmod
from corings.algebras import TwistedAlgebra, ambient_algebra, gamma_map, gamma_matrix, untwist_iso
from corings.amitsur import TwistElement, cohomologous, compute_h2, unit_twist
from corings.extensions import TensorRing, _build_tensor_ring, amitsur_rebase, external_extension, restrict_scalars
from corings.rings import FiniteRing, InternalCheckError, RingHom, make_product_ring, make_quotient_ring, zmod_ring
from tests.conftest import DESK, random_extension, simple_extension


# -- reference routes -------------------------------------------------------------


def ref_mul(base, spec, x, y):
    """A product of base-ring coordinates as one three-operand int64 einsum, reduced mod n."""
    ins, out = spec.split("->")
    a, b = ins.split(",")
    full = f"{a.replace('_', 'U')},{b.replace('_', 'V')},UVW->{out.replace('_', 'W')}"
    return np.einsum(full, x, y, base.struct.astype(np.int64)) % base.n


def ref_restrict(base, rtable):
    """The whole Z/nZ table as one int64 array, before the cast."""
    size = len(rtable) * base.rank
    return ref_mul(base, "ab_,ijk_->iajbk_", base.struct, np.asarray(rtable, dtype=np.int64)).reshape((size,) * 3)


def ref_tensor_table(base, rmults):
    acc = rmults[0] % base.n
    for rm in rmults[1:]:
        dim = len(acc) * len(rm)
        acc = ref_mul(base, "IJA_,ija_->IiJjAa_", acc, rm).reshape(dim, dim, dim, base.rank)
    return ref_restrict(base, acc).astype(base.struct.dtype)


def ref_table(n, structure):
    """The table as FiniteRing made it: an int64 copy reduced with %, then cast."""
    return (np.array(structure, dtype=np.int64) % n).astype(np.int8 if n <= 127 else np.int16)


def ref_products(ring, x, y):
    want = np.einsum("xa,yb,abk->xyk", x, y, ring.struct.astype(np.int64)) % ring.n
    same(zmod.outer_products(x, y, ring.struct.astype(np.float64), ring.n), want)
    return want


def ref_mul_rows(ring, x, y):
    want = np.einsum("xa,xb,abk->xk", x, y, ring.struct.astype(np.int64)) % ring.n
    same(zmod.bilinear_mod(x, y, ring.struct.astype(np.float64), ring.n), want)
    return want


def ref_mulmat(ring, x):
    r = ring.rank
    flat = ring.struct.reshape(r, r * r).astype(np.int64)
    if x.ndim > 1:
        return ((x @ flat) % ring.n).reshape(x.shape[:-1] + (r, r)).swapaxes(-1, -2)
    nx = x.nonzero()[0]
    return ((x[nx] @ flat[nx]) % ring.n).reshape(r, r).T


def ref_first_nonassociative(table, n):
    """The former kernel: pair blocks against one float64 copy of the whole table."""
    t = np.asarray(table, dtype=np.float64)
    r = len(t)
    pair_rows, flat = t.reshape(r * r, r), t.reshape(r, r * r)
    step = zmod.block_rows(r * r)
    for s in range(0, r * r, step):
        i, j = np.divmod(np.arange(s, min(s + step, r * r)), r)
        left = zmod.matmul_mod(pair_rows[s : s + step], flat, n).reshape(-1, r, r)
        bad = np.argwhere(left != zmod.matmul_mod(t[j], t[i], n))
        if len(bad):
            p, k = bad[0][:2]
            return int(i[p]), int(j[p]), int(k)
    return None


def ref_is_multiplicative(hom):
    s, imgs = hom.source.rank, hom.matrix.T
    lhs = zmod.matmul_mod(hom.source.struct.reshape(s * s, s), imgs, hom.target.n)
    return bool((lhs == ref_products(hom.target, imgs, imgs).reshape(s * s, -1)).all())


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# -- rings ------------------------------------------------------------------------


def refined_extension():
    """(F4⊗F2[x]/(x²+x))/F2, the compare job's refinement: S^⊗3 has rank 64."""
    f2 = zmod_ring(2)
    return external_extension(
        simple_extension(f2, make_quotient_ring(2, [1, 1, 1])),
        simple_extension(f2, make_quotient_ring(2, [0, 1, 1])),
    )


MODULI = [2, 4, 9, 127, 128, 1 << 14]


def modulus_extensions():
    """Z/n[x]/(x^2 + x + 3) over Z/n and over Z/n on e_0 = c·1 (c != 1), for every modulus."""
    exts = [random_extension(n, [3, 1, 1], rebased=False) for n in MODULI]
    exts += [random_extension(n, [3, 1, 1], rebased=False, c=c) for n, c in [(9, 2), (127, 3), (1 << 14, 5)]]
    return exts + [random_extension(4, [1, 1, 1], rebased=True)]


def tensor_rings(request):
    """Tensor powers at levels 2 and 3 of the desk fixtures, (F4⊗F4)/F4 and the
    modulus extensions, and S^⊗2 of the refined extension (rank 16)."""
    exts = [request.getfixturevalue(name) for name in DESK] + modulus_extensions()
    exts.append(amitsur_rebase(request.getfixturevalue("f4_over_f2")))
    rings = [ext.tensor_power(m).ring for ext in exts for m in (2, 3)]
    return rings + [refined_extension().tensor_power(2).ring]


def fresh(ring: TensorRing) -> TensorRing:
    """The same tensor ring with nothing cached."""
    return TensorRing(ring.base, ring.rmults, ring.ones, ring.name)


def rows_of(ring, rng, count):
    """Basis elements, 1, sparse and dense random elements, and 0."""
    eye = np.eye(ring.rank, dtype=np.int64)
    sparse = rng.integers(0, ring.n, (count, ring.rank)) * (rng.random((count, ring.rank)) < 0.2)
    dense = rng.integers(0, ring.n, (count, ring.rank))
    return np.vstack([eye[: count], ring.one, sparse, dense, np.zeros(ring.rank, dtype=np.int64)])


def check_ring(ring, rng):
    """Every product route of one ring against its reference, and associativity."""
    x = rows_of(ring, rng, 5)
    y = rows_of(ring, rng, 3)
    same(ring.products(x, y), ref_products(ring, x, y))
    same(ring.mul_rows(x, x[::-1]), ref_mul_rows(ring, x, x[::-1]))
    same(ring.mulmat(x), ref_mulmat(ring, x))
    stack = x[:8].reshape(2, 4, ring.rank)
    same(ring.mulmat(stack), ref_mulmat(ring, stack))
    for v in x:
        same(ring.mulmat(v), ref_mulmat(ring, v))
    pairs = ring.struct.reshape(-1, ring.rank)  # the table as the left operand, as in is_multiplicative
    same(zmod.matmul_mod(pairs, x.T, ring.n), (pairs.astype(np.int64) @ x.T) % ring.n)
    assert zmod.first_nonassociative(ring.struct, ring.n) == ref_first_nonassociative(ring.struct, ring.n) is None
    spoils = [(ring.rank - 1, ring.rank - 1, 0)] + rng.integers(0, ring.rank, (3, 3)).tolist()
    for s, (i, j, k) in enumerate(spoils):
        spoiled = ring.struct.copy()
        spoiled[i, j, k] = (spoiled[i, j, k] + 1) % ring.n
        want = ref_first_nonassociative(spoiled, ring.n)
        assert zmod.first_nonassociative(spoiled, ring.n) == want
        # a random spoil may leave the table associative, as (1, 1, 3) of S^⊗2 of Z/2[x]/(x²) does
        assert want is not None or s > 0


# -- tables -----------------------------------------------------------------------


@pytest.mark.parametrize("entries", [None, 40, 300])
def test_tensor_tables_match_the_int64_build(request, entries, monkeypatch):
    """TensorRing.struct, in the base's dtype, is the int64 build cast; with
    BLOCK_ENTRIES patched down the rank-8 and rank-16 tables take many row
    blocks, and a rank-2 base many base blocks."""
    rings = tensor_rings(request)
    wants = [ref_tensor_table(ring.base, ring.rmults) for ring in rings]
    if entries is not None:
        monkeypatch.setattr(zmod, "BLOCK_ENTRIES", entries)
    for ring, want in zip(rings, wants):
        same(fresh(ring).struct, want)
        same(_build_tensor_ring(ring.base, ring.rmults), want)


@pytest.mark.parametrize("entries", [None, 30])
def test_restrict_scalars_matches_the_int64_contraction(request, entries, monkeypatch):
    """Over every base of the tensor rings, and over rank-1 bases with e_0 e_0 = c e_0."""
    rng = np.random.default_rng(3)
    cases = []
    for ring in tensor_rings(request)[::3]:
        rtable = rng.integers(-5 * ring.n, 5 * ring.n, (3, 3, 3, ring.base.rank))
        cases.append((ring.base, rtable, ref_restrict(ring.base, rtable).astype(ring.base.struct.dtype)))
    if entries is not None:
        monkeypatch.setattr(zmod, "BLOCK_ENTRIES", entries)
    for base, rtable, want in cases:
        same(restrict_scalars(base, rtable), want)


@pytest.mark.parametrize("n", MODULI)
def test_finite_ring_reduces_any_input_into_its_table(n):
    """int8, int16, int64 and list input, with negative entries and entries >= n."""
    rng = np.random.default_rng(n)
    raw = rng.integers(-128, 128, (5, 5, 5))
    inputs = [raw.astype(np.int8), (raw * 250).astype(np.int16), raw * 10**9, (raw * 7).tolist()]
    for structure in inputs:
        ring = FiniteRing(n, structure, np.zeros(5, dtype=np.int64), check=False)
        same(ring.struct, ref_table(n, structure))


@pytest.mark.parametrize("n", MODULI)
def test_product_ring_table_in_the_small_dtype(n):
    a = make_quotient_ring(n, [3, 1, 1])
    b = make_product_ring(zmod_ring(n), make_quotient_ring(n, [1, 0, 0, 1]))
    want = np.zeros((6, 6, 6), dtype=np.int64)
    want[:2, :2, :2] = a.struct
    want[2:, 2:, 2:] = b.struct
    same(make_product_ring(a, b).struct, ref_table(n, want))


# -- products -----------------------------------------------------------------------


@pytest.mark.parametrize("entries", [None, 70, 600])
def test_products_match_the_whole_table_routes(request, entries, monkeypatch):
    """products, mul_rows, mulmat (single and stacked) and first_nonassociative
    on every tensor ring, the refined S^⊗3 (rank 64, above BLOCK_ENTRIES as it
    is) and quotient rings of ranks 8 and 16; patched down, rank 8 and 16 go
    through the block-by-block conversion too."""
    rings = [fresh(ring) for ring in tensor_rings(request)[::2]]
    rings += [make_quotient_ring(n, [1, 1] + [0] * (r - 2) + [1]) for n, r in [(2, 16), (9, 8), (128, 8)]]
    if entries is None:
        rings.append(fresh(refined_extension().tensor_power(3).ring))
    else:
        monkeypatch.setattr(zmod, "BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(entries or 226)
    for ring in rings:
        check_ring(ring, rng)


def test_long_contractions_over_an_integer_table(monkeypatch):
    """Over Z/16381 a term of mul_rows is below 2^42, so at most 2048 terms
    of its rank-64 contraction (4096 pairs, each near 2^42 here) sum exactly
    in float64: the integer table's blocks are reduced before the sum could
    pass 2^53."""
    n, r = 16381, 64
    rng = np.random.default_rng(64)
    ring = FiniteRing(n, rng.integers(n - 50, n, (r, r, r)), np.zeros(r, dtype=np.int64), check=False)
    x, y = rng.integers(n - 3, n, (2, 5, r))
    want = ref_mul_rows(ring, x, y)
    monkeypatch.setattr(zmod, "BLOCK_ENTRIES", 4096)
    same(zmod.bilinear_mod(x, y, ring.struct, n), want)
    same(zmod.outer_products(x, y, ring.struct, n), ref_products(ring, x, y))


@pytest.mark.parametrize("entries", [None, 50])
def test_mul_einsum_matches_the_int64_table(request, entries, monkeypatch):
    """The table enters mul_einsum in its own dtype; every spec of the library."""
    rng = np.random.default_rng(11)
    specs = [("I_,J_->IJ_", (4,), (3,)), ("i_,ija_->aj_", (2,), (2, 2, 2)), ("Aij_,Bjk_->ABik_", (2, 2, 2), (3, 2, 2)),
             ("ab_,ijk_->iajbk_", (2, 2), (2, 2, 2)), ("XJA_,Xja_->XJjAa_", (3, 2, 2), (3, 2, 2))]
    bases = [ring.base for ring in tensor_rings(request)[::4]] + [make_quotient_ring(2, [1, 1] + [0] * 14 + [1])]
    cases = []
    for base in bases:
        for spec, xs, ys in specs:
            x = rng.integers(0, base.n, xs + (base.rank,))
            y = rng.integers(0, base.n, ys + (base.rank,))
            cases.append((base, spec, x, y, ref_mul(base, spec, x, y)))
    if entries is not None:
        monkeypatch.setattr(zmod, "BLOCK_ENTRIES", entries)
    for base, spec, x, y, want in cases:
        same(base.mul_einsum(spec, x, y), want)


@pytest.mark.parametrize("entries", [None, 100])
def test_is_multiplicative_matches_the_one_block_route(request, entries, monkeypatch):
    """Face maps into S^⊗2 and S^⊗3 (multiplicative) and the same maps with
    one entry changed, block by block against the whole products."""
    exts = [request.getfixturevalue(name) for name in DESK] + [refined_extension()]
    homs = [ext.face_map(m, i) for ext in exts for m in (1, 2) for i in (1, m + 1)]
    cases = []
    for hom in homs:
        bad = hom.matrix.copy()
        bad[-1, -1] = (bad[-1, -1] + 1) % hom.target.n
        for mat in (hom.matrix, bad):
            spoiled = RingHom(hom.source, hom.target, mat, check=False)
            cases.append((spoiled, ref_is_multiplicative(spoiled)))
    assert any(want for _, want in cases) and not all(want for _, want in cases)
    if entries is not None:
        monkeypatch.setattr(zmod, "BLOCK_ENTRIES", entries)
    for hom, want in cases:
        assert hom.is_multiplicative() == want


# -- the one homomorphism test ------------------------------------------------------
#
# rings._is_multiplicative is the only multiplicativity test: RingHom, gamma_map
# and untwist_iso call it.  Each map below is checked through its library call
# with its matrix swapped in, against ref_is_multiplicative on the same matrix
# between the algebras' Z/nZ tables read as rings.


def as_ring(alg):
    """A FiniteAlgebra as an unchecked FiniteRing on its Z/nZ table."""
    return FiniteRing(alg.n, alg.table, alg.one.reshape(-1), check=False)


def spoil(mat, n):
    """The matrix with one entry changed."""
    bad = mat.copy()
    bad[-1, -1] = (bad[-1, -1] + 1) % n
    return bad


def gamma_verdict(tw, mat):
    """gamma_map's multiplicativity flag with mat in place of gamma."""
    with mock.patch.object(algebras, "gamma_matrix", return_value=mat):
        return gamma_map(tw).multiplicative


def untwist_verdict(tw, witness, mat):
    """Whether untwist_iso passes its multiplicativity check with mat in place of its own matrix."""
    honest = algebras._is_multiplicative

    def swapped(table, images, products, n):
        return honest(table, mat.T, products, n)

    with mock.patch.object(algebras, "_is_multiplicative", swapped):
        try:
            untwist_iso(tw, witness)
        except InternalCheckError as exc:
            assert "not multiplicative" in str(exc)
            return False
    return True


def test_gamma_untwisting_and_face_maps_match_the_reference(gf9_over_f3):
    ext, n = gf9_over_f3, gf9_over_f3.n
    tw = TwistElement(ext, compute_h2(ext).z2[-1])
    witness = cohomologous(tw, unit_twist(ext))
    twisted = as_ring(TwistedAlgebra(ext, tw, "right").algebra())
    ends = as_ring(TwistedAlgebra(ext, unit_twist(ext), "right").algebra())  # End_R(S), composition
    s2, s3 = ext.tensor_power(2).ring, ext.tensor_power(3).ring
    maps = [
        (twisted, as_ring(ambient_algebra(ext)), gamma_matrix(ext, tw.u.coeffs), lambda m: gamma_verdict(tw, m)),
        (twisted, ends, untwist_iso(tw, witness), lambda m: untwist_verdict(tw, witness, m)),
        (s2, s3, ext.face_map(2, 2).matrix, lambda m: RingHom(s2, s3, m, check=False).is_multiplicative()),
    ]
    for source, target, mat, verdict in maps:
        for m, want in ((mat, True), (spoil(mat, n), False)):
            assert ref_is_multiplicative(RingHom(source, target, m, check=False)) == want
            assert verdict(m) == want


def test_gamma_map_brings_four_matrices_to_howell_form(gf9_over_f3, monkeypatch):
    """Three for A(u) (kernel, its rows, closure) and one for gamma^T, which
    gives both injectivity and the image."""
    tw = TwistElement(gf9_over_f3, compute_h2(gf9_over_f3).z2[-1])
    gamma_map(tw)  # the twist's inverse and the extension's memo, kept
    calls = []
    honest = zmod.howell
    monkeypatch.setattr(zmod, "howell", lambda a, n: calls.append(n) or honest(a, n))
    assert gamma_map(tw).ok and len(calls) == 4


def test_validating_faces_into_the_rank_256_power_builds_no_table():
    """S^⊗4 of the refined extension multiplies slot by slot, so RingHom.validate
    checks only the unit law of the faces S^⊗3 -> S^⊗4 built into it."""
    ext = refined_extension()
    t4 = ext.tensor_power(4).ring
    validated = []
    honest = RingHom.validate
    with mock.patch.object(RingHom, "validate", lambda hom: validated.append(hom) or honest(hom)):
        faces = [ext.face_map(3, i) for i in range(1, 5)]
    assert t4.rank == 256 and t4._slotwise and all(any(f is v for v in validated) for f in faces)
    assert "struct" not in vars(t4)


@pytest.mark.parametrize("bufsize", [None, 7])
def test_blocked_reductions_match_remainder(bufsize, monkeypatch):
    """zmod._mod and zmod._reduce against % on small, large, negative and strided arrays."""
    if bufsize is not None:
        monkeypatch.setattr(zmod, "_BUFSIZE", bufsize)
    rng = np.random.default_rng(5)
    for shape in [(3,), (700,), (30, 40), (20000,), (40, 600, 3)]:
        x = rng.integers(-(10**12), 10**12, shape)
        for q in (2, 9, 16381):
            for view in (x, x[..., ::2], x.T):
                got = view.copy(order="K")
                same(zmod._mod(got, q), view % q)
                f = view.astype(np.float64)
                same(zmod._reduce(f.copy(order="K"), q), f % q)


# -- memory -------------------------------------------------------------------------


def test_no_ring_keeps_a_wide_copy_of_its_table():
    """After products, mulmat, validation and face maps, the rank-64 S^⊗3 of
    the refined extension keeps no array of more than BLOCK_ENTRIES entries in
    a dtype other than its table's; a rank-16 ring keeps its float64 copy."""
    ext = refined_extension()
    t3 = ext.tensor_power(3).ring
    x = rows_of(t3, np.random.default_rng(2), 4)
    t3.products(x, x), t3.mul_rows(x, x), t3.mulmat(x), t3.validate()
    ext.face_map(2, 1)
    assert t3.struct.size > zmod.BLOCK_ENTRIES
    for value in vars(t3).values():
        if isinstance(value, np.ndarray) and value.size > zmod.BLOCK_ENTRIES:
            assert value.dtype == t3.struct.dtype
    t2 = ext.tensor_power(2).ring
    t2.products(x[:, :16], x[:, :16])
    assert t2._float_struct.dtype == np.float64


def test_dense_mulmat_at_rank_64_converts_one_block_at_a_time():
    """mulmat of the all-ones element of the refined S^⊗3 touches every table
    row: converted one block at a time it peaks at no more than 1.5 MB
    traced, where the touched rows cast to int64 at once took 2 MB."""
    ring = refined_extension().tensor_power(3).ring
    x = np.ones(ring.rank, dtype=np.int64)
    want = ref_mulmat(ring, x)
    tracemalloc.start()
    try:
        got = ring.mulmat(x)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    same(got, want)
    assert peak <= 1.5


def test_refined_tensor_table_builds_in_one_table_of_memory():
    """The S^⊗3 table of the compare job's refined extension (64^3 entries,
    256 KB as int8) peaks at no more than 1 MB traced: it is written in int8,
    one block of rows at a time (4.25 MB through int64 copies before)."""
    ring = fresh(refined_extension().tensor_power(3).ring)
    tracemalloc.start()
    try:
        table = ring.struct
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert table.shape == (64, 64, 64) and table.dtype == np.int8 and peak <= 1


def test_degree_64_twist_job_peaks_below_six_megabytes(tmp_path):
    """A twist job with S = R = F2[x]/(x^64 + x + 1), so every tensor power has
    rank 64: through cli.run it peaks at no more than 6 MB traced (14.8 MB
    when tables were built and multiplied through int64 and float64 copies)."""
    one = [1] + [0] * 63
    job = {
        "rings": {"R": {"modulus": 2, "kind": "quotient", "poly": [1, 1] + [0] * 62 + [1]}},
        "extension": {"base": "R", "top": "R", "eta": np.eye(64, dtype=int).tolist(), "basis": [one]},
        "command": {"name": "twist", "twist": one},
    }
    path = tmp_path / "twist64.json"
    path.write_text(json.dumps(job))
    out = io.BytesIO()
    tracemalloc.start()
    try:
        code = cli.run([str(path), "--format", "json"], stdout=out)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    result = json.loads(out.getvalue())["result"]
    assert code == 0 and result["azumaya"] and result["coassociative"]
    assert peak <= 6
