"""Algebras as Z/nZ structure tables, against the per-pair routes they replaced.

The reference functions below are the element-at-a-time definitions: the
restricted-scalars table and the product of two elements, each by two
einsums over the base structure constants,
the twisted product as a composition of R-matrices per support term, closure
of A(u) as one membership test per pair of basis rows, the enveloping map one
basis element at a time, and the coassociativity tensor from one twisted
coring per basis element of S^⊗3.  Every batched route must equal them
exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corings import zmod
from corings.algebras import (
    DescentAlgebra,
    FiniteAlgebra,
    TwistedAlgebra,
    _membership_matrices,
    ambient_algebra,
    enveloping_matrix,
    gamma_inverse_matrix,
    gamma_map,
    gamma_matrix,
    is_azumaya_algebra,
    untwist_iso,
)
from corings.amitsur import TwistElement, compute_h2, delta1, unit_twist
from corings.classify import _coassoc_difference_tensor
from corings.coring import twisted_coring
from corings.rings import InternalCheckError, try_invert, zmod_ring
from tests.conftest import desk_extensions, random_extension, skewed


# -- reference routes -------------------------------------------------------------


def ref_table(alg):
    c_r = alg.base.struct.astype(np.int64)
    scalars = np.einsum("abp,pqt->abqt", c_r, c_r) % alg.n  # (e_a e_b) e_q
    table = np.einsum("ijkq,abqt->iajbkt", alg.struct, scalars) % alg.n
    size = alg.dim * alg.base.rank
    return table.reshape(size, size, size)


def ref_mul(alg, x, y):
    c_r = alg.base.struct.astype(np.int64)
    pair = np.einsum("ia,jb,abt->ijt", x.astype(np.int64), y.astype(np.int64), c_r) % alg.n
    return np.einsum("ijp,ijkq,pqt->kt", pair, alg.struct, c_r) % alg.n


def ref_compose(ext, a, b):
    c_r = ext.base.struct.astype(np.int64)
    return np.einsum("ija,jkb,abt->ikt", a.astype(np.int64), b.astype(np.int64), c_r) % ext.n


def ref_support(ext, coeffs, level):
    shape = (ext.degree,) * level + (ext.base.rank,)
    terms = []
    for f in np.nonzero(coeffs)[0]:
        *slots, rho = map(int, np.unravel_index(f, shape))
        terms.append((int(coeffs[f]), rho, tuple(slots)))
    return terms


def ref_twisted_product(ext, terms, side, phi, psi):
    """The twisted product; terms are (coefficient, pi, m1, m2, m3) per support coordinate."""
    c_r = ext.base.struct.astype(np.int64)
    out = np.zeros_like(phi)
    for coeff, pi, m1, m2, m3 in terms:
        if side == "right":
            term = ref_compose(ext, m3, ref_compose(ext, phi, ref_compose(ext, m2, ref_compose(ext, psi, m1))))
        else:
            term = ref_compose(ext, m1, ref_compose(ext, psi, ref_compose(ext, m2, ref_compose(ext, phi, m3))))
        out = (out + coeff * (term @ c_r[pi])) % ext.n
    return out


def matrix_units(ext):
    d = ext.degree
    out = np.zeros((d * d, d, d, ext.base.rank), dtype=np.int64)
    rows, cols = np.divmod(np.arange(d * d), d)
    out[np.arange(d * d), rows, cols] = ext.base.one
    return out


def ref_twisted_struct(ext, tw, side):
    m, kr = ext.degree**2, ext.base.rank
    basis = matrix_units(ext)
    terms = [
        (coeff, pi, *(ext.rmulmat(ext.basis[k]) for k in slots))
        for coeff, pi, slots in ref_support(ext, tw.u.coeffs, 3)
    ]
    struct = np.zeros((m, m, m, kr), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            struct[a, b] = ref_twisted_product(ext, terms, side, basis[a], basis[b]).reshape(m, kr)
    return struct


def ref_closed(desc):
    kr, m = desc.ext.base.rank, desc.ambient.dim
    for x in desc.solution_basis:
        for y in desc.solution_basis:
            prod = ref_mul(desc.ambient, x.reshape(m, kr), y.reshape(m, kr)).reshape(-1)
            if not zmod.in_row_span(desc._howell, prod, desc.ext.n):
                return False
    return True


def ref_enveloping(alg):
    m, kr, n = alg.dim, alg.base.rank, alg.n
    c_r = alg.base.struct.astype(np.int64)
    cols = np.zeros((m * m * kr, m * m * kr), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            for rho in range(kr):
                left = (alg.basis_coords(i) @ c_r[rho]) % n
                endo = np.zeros((m, m, kr), dtype=np.int64)
                for l in range(m):
                    endo[:, l, :] = ref_mul(alg, ref_mul(alg, left, alg.basis_coords(l)), alg.basis_coords(j))
                cols[:, (i * m + j) * kr + rho] = endo.reshape(-1)
    return cols


def ref_comultiplication(ext, u):
    t2, t3 = ext.tensor_power(2), ext.tensor_power(3)
    d, kr, n = ext.degree, ext.base.rank, ext.n
    c_r = ext.base.struct.astype(np.int64)
    mat = np.zeros((t3.rank, t2.rank), dtype=np.int64)
    block = mat.reshape(d, d, d, kr, t2.rank)
    for src in range(t2.rank):
        i, j, rho = np.unravel_index(src, (d, d, kr))
        left_seed = ext.top.mul_vec(ext.eta.matrix[:, rho], ext.basis[i])
        for coeff, pi, (k1, k2, k3) in ref_support(ext, u, 3):
            rc1 = ext.r_coords(ext.top.mul_vec(ext.basis[k1], left_seed))
            rc3 = ext.r_coords(ext.top.mul_vec(ext.basis[k3], ext.basis[j]))
            out = np.einsum("av,bs,vst->abt", (rc1 @ c_r[pi]) % n, rc3, c_r) % n
            block[:, k2, :, :, src] = (block[:, k2, :, :, src] + coeff * out) % n
    return mat


def ref_triple_coproducts(ext, dm):
    """(Delta ⊗ id) and (id ⊗ Delta) as matrices S^⊗3 -> S^⊗4."""
    d, kr = ext.degree, ext.base.rank
    dm = dm.reshape(d, d, d, kr, d, d, kr)
    left = np.zeros((d, d, d, d, kr, d, d, d, kr), dtype=np.int64)
    right = np.zeros_like(left)
    for l in range(d):
        left[:, :, :, l, :, :, :, l, :] = dm
        right[l, :, :, :, :, l, :, :, :] = dm
    return left.reshape(d**4 * kr, d**3 * kr), right.reshape(d**4 * kr, d**3 * kr)


def ref_coassoc_difference_tensor(ext):
    k3 = ext.tensor_power(3).rank
    deltas = [ref_comultiplication(ext, np.eye(k3, dtype=np.int64)[i]) for i in range(k3)]
    mats = [ref_triple_coproducts(ext, dm) for dm in deltas]
    return np.stack(
        [
            np.stack([(((m1 - m2) @ deltas[j]) % ext.n).reshape(-1) for j in range(k3)])
            for m1, m2 in mats
        ]
    )


def ref_gamma_matrices(ext, u, v):
    """gamma, gamma^{-1} and the two membership maps, one term and base index at a time."""
    d, kr, n = ext.degree, ext.base.rank, ext.n
    rmult = ext.rmult()
    c_r = ext.base.struct.astype(np.int64)
    g = np.zeros((d, d, d, kr, d, d, kr), dtype=np.int64)
    l13 = np.zeros((d, d, d, d, kr, d, d, d, kr), dtype=np.int64)
    l24 = np.zeros_like(l13)
    for coeff, pi, (c1, c2, c3) in ref_support(ext, u, 3):
        for rho in range(kr):
            q = (coeff * c_r[rho, pi]) % n
            step = np.einsum("t,Kjv,tvs->Kjs", q, rmult[c2], c_r) % n
            g[c1, ..., rho] += np.einsum("Kjs,iLw,swz->KLzij", step, rmult[c3], c_r) % n
            val = np.einsum("aQs,lLw,swz->QLzal", step, rmult[c3], c_r) % n
            step = np.einsum("t,aPv,tvs->aPs", q, rmult[c1], c_r) % n
            val24 = np.einsum("aPs,Kkw,swz->PKzak", step, rmult[c3], c_r) % n
            for k in range(d):
                l13[c1, :, k, :, :, :, k, :, rho] += val
                l24[:, c2, :, k, :, :, :, k, rho] += val24
    ginv = np.zeros((d, d, kr, d, d, d, kr), dtype=np.int64)
    for coeff, pi, (c1, c2, c3) in ref_support(ext, v, 3):
        for rho in range(kr):
            q = (coeff * c_r[rho, pi]) % n
            step = np.einsum("t,Kkv,tvs->Kks", q, rmult[c2], c_r) % n
            for a in range(d):
                for l in range(d):
                    w = ext.top.mul_vec(
                        ext.top.mul_vec(ext.basis[c1], ext.basis[c3]),
                        ext.top.mul_vec(ext.basis[a], ext.basis[l]),
                    )
                    val = np.einsum("Kks,Iw,swz->IKzk", step, ext.r_coords(w), c_r) % n
                    ginv[:, :, :, a, :, l, rho] += val
    return (
        (g % n).reshape(d**3 * kr, d**2 * kr),
        (ginv % n).reshape(d**2 * kr, d**3 * kr),
        (l13 % n).reshape(d**4 * kr, d**3 * kr),
        (l24 % n).reshape(d**4 * kr, d**3 * kr),
    )


def ref_associative(alg):
    eye = [alg.basis_coords(i) for i in range(alg.dim)]
    for i in range(alg.dim):
        if (ref_mul(alg, alg.one, eye[i]) != eye[i]).any() or (ref_mul(alg, eye[i], alg.one) != eye[i]).any():
            return False
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = ref_mul(alg, eye[i], eye[j])
            for k in range(alg.dim):
                if (ref_mul(alg, ij, eye[k]) != ref_mul(alg, eye[i], ref_mul(alg, eye[j], eye[k]))).any():
                    return False
    return True


# -- comparisons ------------------------------------------------------------------


def check_products(alg, rows=None):
    """The table against ref_table, then batched products of every pair of rows
    (default: the Z/nZ basis) against ref_mul."""
    ref = ref_table(alg)  # int64; the table is in the base's small dtype
    assert alg.table.dtype == alg.base.struct.dtype and (alg.table == ref).all()
    assert alg.table.tobytes() == ref.astype(alg.table.dtype).tobytes()
    size = alg.dim * alg.base.rank
    rows = np.eye(size, dtype=np.int64) if rows is None else rows
    got = alg.products(rows, rows)
    shape = (alg.dim, alg.base.rank)
    for a, x in enumerate(rows):
        for b, y in enumerate(rows):
            assert (got[a, b] == ref_mul(alg, x.reshape(shape), y.reshape(shape)).reshape(-1)).all(), (a, b)
    assert (alg.mul(rows[0].reshape(shape), rows[-1].reshape(shape)) == got[0, -1].reshape(shape)).all()


def check_cocycle(ext, tw):
    for side in ("right", "left"):
        twisted = TwistedAlgebra(ext, tw, side)
        alg = twisted.algebra()
        assert (alg.struct == ref_twisted_struct(ext, tw, side)).all(), side
        alg.validate()  # associative, not commutative
        check_products(alg)
        env = enveloping_matrix(alg)
        assert (env == ref_enveloping(alg)).all()
        assert is_azumaya_algebra(alg)
    desc = DescentAlgebra(ext, tw)  # the batched closure check runs here
    assert ref_closed(desc)
    check_products(desc.ambient, desc.solution_basis)
    g, ginv, l13, l24 = ref_gamma_matrices(ext, tw.u.coeffs, tw.inverse.coeffs)
    assert (gamma_matrix(ext, tw.u.coeffs) == g).all()
    assert (gamma_inverse_matrix(ext, tw.inverse.coeffs) == ginv).all()
    new13, new24 = _membership_matrices(ext, tw.u.coeffs)
    assert (new13 == l13).all() and (new24 == l24).all()
    assert gamma_map(tw).ok


def test_tables_match_per_pair_routes_on_every_cocycle(request):
    """Ambient, descent and both dual algebras, on every Z^2 cocycle of the desk fixtures and (F4⊗F4)/F4;
    the ambient algebra also on a skewed basis."""
    rng = np.random.default_rng(9)
    for ext in desk_extensions(request):
        check_products(ambient_algebra(ext))
        check_products(ambient_algebra(skewed(ext, rng)))
        for row in compute_h2(ext).z2:
            check_cocycle(ext, TwistElement(ext, row))


def test_coproducts_match_per_coring_loop(request):
    for ext in desk_extensions(request):
        assert (_coassoc_difference_tensor(ext) == ref_coassoc_difference_tensor(ext)).all()
        rng = np.random.default_rng(7)
        t3 = ext.tensor_power(3)
        rows = [t3.one_vec(), np.zeros(t3.rank, dtype=np.int64)] + list(rng.integers(0, ext.n, (4, t3.rank)))
        for u in rows:
            assert (twisted_coring(ext, u).comultiplication == ref_comultiplication(ext, u)).all()


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([4, 6, 9, 12]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, n - 1), min_size=2, max_size=2).map(lambda c: c + [1]),
            st.booleans(),
            st.integers(0, 2**32 - 1),
            st.sampled_from([c for c in range(1, n) if math.gcd(c, n) == 1]),
        )
    )
)
def test_tables_on_random_coboundaries(case):
    """Hypothesis extensions over n in {4, 6, 9, 12}, base Z/n on e_0 = c·1 for a random
    unit c, twisted by u = delta_1(w) for a random unit w."""
    n, poly, rebased, seed, c = case
    try:
        ext = random_extension(n, poly, rebased, c)
    except ValueError:
        assume(False)
    t2 = ext.tensor_power(2)
    w = np.random.default_rng(seed).integers(0, n, t2.rank)
    assume(try_invert(t2.element(w)) is not None)
    tw = TwistElement(ext, delta1(ext, w))
    check_cocycle(ext, tw)
    untwist_iso(tw, w)  # checks multiplicativity against the table of End_R(S)_u
    assert (_coassoc_difference_tensor(ext) == ref_coassoc_difference_tensor(ext)).all()


def test_closure_check_matches_per_pair_check_on_submodules(f4_over_f2):
    """Submodules of the size of A(u): the batched check refuses exactly the non-closed ones."""
    ext = f4_over_f2
    real = DescentAlgebra(ext, unit_twist(ext))
    rng = np.random.default_rng(11)
    verdicts = []
    for rows in [real.solution_basis] + [rng.integers(0, 2, (4, real.ambient.dim)) for _ in range(60)]:
        hf = zmod.howell(rows, 2)
        if zmod.span_size(hf, 2) != 16:
            continue
        sub = DescentAlgebra.__new__(DescentAlgebra)
        sub.ext, sub.ambient, sub._howell, sub.solution_basis = ext, real.ambient, hf, hf.h
        try:
            sub._check_closure_and_rank()
            closed = True
        except InternalCheckError as err:
            assert "not closed" in str(err)
            closed = False
        assert closed == ref_closed(sub)
        verdicts.append(closed)
    assert verdicts[0] and verdicts.count(False) >= 10


def test_validate_rejects_a_non_associative_table():
    """1, x, y with x x = y, x y = x and y x = y y = 0: (x x) x = 0 but x (x x) = x."""
    struct = np.zeros((3, 3, 3, 1), dtype=np.int64)
    for j in range(3):
        struct[0, j, j] = struct[j, 0, j] = 1
    struct[1, 1, 2] = struct[1, 2, 1] = 1
    with pytest.raises(ValueError, match=r"associativity fails at \(1,1,1\)"):
        FiniteAlgebra(zmod_ring(4), struct, [[1], [0], [0]])
    assert not ref_associative(FiniteAlgebra(zmod_ring(4), struct, [[1], [0], [0]], check=False))
    with pytest.raises(ValueError, match="unit law"):
        FiniteAlgebra(zmod_ring(4), struct, [[0], [1], [0]])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 6]), st.integers(2, 3), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_validate_matches_per_triple_check(n, dim, seed, zeros):
    """Random tables with e_0 as the unit: the table identity and the triple loop agree."""
    rng = np.random.default_rng(seed)
    struct = rng.integers(0, n, (dim, dim, dim, 1)) * (rng.random((dim, dim, dim, 1)) < 0.3 * zeros)
    struct[0] = struct[:, 0] = 0
    for j in range(dim):
        struct[0, j, j] = struct[j, 0, j] = 1
    one = np.eye(dim, dtype=np.int64)[:1].T
    alg = FiniteAlgebra(zmod_ring(n), struct, one, check=False)
    try:
        alg.validate()
        ok = True
    except ValueError:
        ok = False
    assert ok == ref_associative(alg)
