"""Dual rings of twisted corings and the descent-algebra isomorphism.

The right dual of the twisted coring on S⊗S is End_R(S) with the crossed
product

    (phi * psi)(s) = sum  phi(psi(s u^1) u^2) u^3,

the left dual carries the mirrored product u^1 psi u^2 phi u^3.  For a unit
2-cocycle u the descent algebra

    A(u) = { x in S ⊗ End_R(S) : x_2 u_4 = x_1 u_3 }

is computed as a Howell kernel inside S ⊗ S* ⊗ S, and

    gamma(phi) = u^1 ⊗ u^3 phi u^2,
    gamma^{-1}(sum s_i ⊗ t_i* ⊗ t_i) = sum t_i* v^2 ⊗ v^1 v^3 s_i t_i

(v = u^{-1}) is verified to be a unital algebra isomorphism onto it.
Azumaya-ness of a finite free R-algebra is decided by bijectivity of the
enveloping map A ⊗ A^op -> End_R(A).

Endomorphisms of S are stored as d x d matrices with entries in R, in the
declared R-basis of S; the identification End_R(S) ≅ S* ⊗ S uses the dual
basis of that same basis (epsilon_{ij} = b_j* ⊗ b_i sends b_j to b_i).

Every algebra is multiplied as a Z/nZ-algebra.  Restricting scalars once, an
algebra of dimension m over R of rank kr has rank N = m·kr over Z/nZ and the
table T[(i,a),(j,b),(k,t)] = ((e_a e_b)·struct[i,j,k])_t (FiniteAlgebra.table,
one extensions.restrict_scalars, cached on the algebra).  Products of batches
are then one zmod.outer_products each; the unit and associativity laws,
closure of A(u) and the enveloping matrix are each one batched identity or
contraction on T, and gamma and the untwisting map pass the ring maps' test
(rings._is_multiplicative) on T; none loops over basis pairs.  Structure
tensors are built per support term of the twist, stacked, with mul_einsum.

Exactness: T, the structure tensors and the enveloping map are int64 sums
of products of at most three reduced residues, each reduced mod n before the
next product, so they stay within the bound in the zmod docstring; batched
products and the GEMMs run on the exact float64 kernels of zmod.  T itself
is kept in the base's int8/int16 dtype, like a ring's table, and a T of more
than zmod.BLOCK_ENTRIES entries is converted one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import zmod
from .amitsur import TwistElement, delta1, is_two_cocycle, NotACocycleError
from .coring import NormalBasisCoring, is_azumaya
from .extensions import Extension, restrict_scalars
from .rings import FiniteRing, InternalCheckError, _is_multiplicative


class WitnessError(ValueError):
    """A claimed coboundary witness fails its defining identity."""


class FiniteAlgebra:
    """An associative unital algebra, free over a finite commutative base ring.

    Elements are R-coordinate arrays of shape (dim, base.rank); the structure
    tensor has shape (dim, dim, dim, base.rank).  Commutativity is not
    assumed.  Products go through the restricted-scalars `table`.
    """

    def __init__(self, base: FiniteRing, struct, one, name: str = "", check: bool = True):
        self.base = base
        self.n = base.n
        self.struct = np.asarray(struct, dtype=np.int64) % self.n
        self.dim = self.struct.shape[0]
        self.one = np.asarray(one, dtype=np.int64) % self.n
        if self.struct.shape != (self.dim, self.dim, self.dim, base.rank):
            raise ValueError("structure tensor has wrong shape")
        if self.one.shape != (self.dim, base.rank):
            raise ValueError("unit coordinates have wrong shape")
        self.name = name or f"algebra(dim={self.dim} over {base.name})"
        if check:
            self.validate()

    @cached_property
    def table(self) -> np.ndarray:
        """Structure constants over Z/nZ, shape (N, N, N) with N = dim * base.rank.

        T[(i,a),(j,b),(k,t)] is coordinate t of (e_a e_b)·struct[i,j,k], the
        product of e_a b_i and e_b b_j (extensions.restrict_scalars); flat
        indices are i * base.rank + a, the layout of a reshaped coordinate array.
        It is in the base's int8/int16 dtype, N^3 or 2 N^3 bytes.
        """
        return restrict_scalars(self.base, self.struct)

    def products(self, x, y) -> np.ndarray:
        """Every product x_a y_b of two batches of flat coordinate rows.

        Returns shape (len(x), len(y), N), from one zmod.outer_products call.

        >>> from corings.rings import zmod_ring
        >>> struct = np.zeros((2, 2, 2, 1), dtype=np.int64)
        >>> struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 0, 1] = 1  # Z/4[e], e^2 = 0
        >>> alg = FiniteAlgebra(zmod_ring(4), struct, [[1], [0]])
        >>> alg.products([[1, 1], [3, 1]], [[2, 1]])[:, 0]  # (1+e)(2+e), (3+e)(2+e)
        array([[2, 3],
               [2, 1]])
        """
        size = self.dim * self.base.rank
        x = np.asarray(x, dtype=np.int64).reshape(-1, size) % self.n
        y = np.asarray(y, dtype=np.int64).reshape(-1, size) % self.n
        return zmod.outer_products(x, y, self.table, self.n)

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.products(x, y)[0, 0].reshape(np.shape(x))

    def basis_coords(self, i: int) -> np.ndarray:
        out = np.zeros((self.dim, self.base.rank), dtype=np.int64)
        out[i] = self.base.one
        return out

    def is_commutative(self) -> bool:
        return not ((self.struct - self.struct.transpose(1, 0, 2, 3)) % self.n).any()

    def validate(self) -> None:
        """Unit law and associativity on all basis triples, as identities on the table."""
        eye = np.eye(len(self.table), dtype=np.int64)
        left_unit = self.products(self.one, eye)[0]
        right_unit = self.products(eye, self.one)[:, 0]
        if (left_unit != eye).any() or (right_unit != eye).any():
            raise ValueError(f"{self.name}: unit law fails")
        bad = zmod.first_nonassociative(self.table, self.n)
        if bad is not None:
            i, j, k = (v // self.base.rank for v in bad)
            raise ValueError(f"{self.name}: associativity fails at ({i},{j},{k})")

    def __repr__(self):
        return f"FiniteAlgebra({self.name})"


def algebra_from_extension(ext: Extension) -> FiniteAlgebra:
    """The top ring S as a (commutative) algebra over its base R."""
    return FiniteAlgebra(
        ext.base,
        ext.rmult(),
        ext.r_coords(ext.top.one),
        name=f"{ext.top.name} over {ext.base.name}",
        check=False,
    )


# -- endomorphism arithmetic -----------------------------------------------------


def identity_endo(ext: Extension) -> np.ndarray:
    return np.einsum("ij,t->ijt", np.eye(ext.degree, dtype=np.int64), ext.base.one)


def _mult_mats(ext: Extension) -> np.ndarray:
    """mats[c] is the R-matrix of multiplication by b_c (ext.rmulmat of b_c)."""
    return ext.rmult().transpose(0, 2, 1, 3)


class TwistedAlgebra:
    """End_R(S) with the product twisted by a unit 2-cocycle, on either side."""

    def __init__(self, ext: Extension, tw: TwistElement, side: str):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        if not is_two_cocycle(tw):
            raise NotACocycleError("twisted endomorphism algebras need a unit 2-cocycle")
        self.ext = ext
        self.twist = tw
        self.side = side

    def product(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """The twisted product of two endomorphisms given as R-matrices."""
        return self.algebra().mul(phi, psi)

    def unit_endo(self) -> np.ndarray:
        """The unit: multiplication by |u|^{-1}."""
        return self.ext.rmulmat(self.twist.norm_inverse.coeffs)

    def algebra(self) -> FiniteAlgebra:
        """Structure constants on the matrix-unit basis, built once and kept.

        Per support term e·(b_c1 ⊗ b_c2 ⊗ b_c3) of u, with m_c the matrix of
        b_c·, the right product eps_ij * eps_kl is e·(m3 ∘ eps_ij ∘ m2 ∘ eps_kl ∘ m1),
        whose entry [x, y] is e·m3[x,i]·m2[j,k]·m1[l,y]; the left product
        e·(m1 ∘ eps_kl ∘ m2 ∘ eps_ij ∘ m3) mirrors it.
        """
        return self._algebra

    @cached_property
    def _algebra(self) -> FiniteAlgebra:
        ext = self.ext
        d, kr = ext.degree, ext.base.rank
        m = d * d
        slots, scalars = ext.tensor_power(3).support(self.twist.u.coeffs)
        m1, m2, m3 = _mult_mats(ext)[slots.T]
        if self.side == "right":
            factors = ((m3, "xi"), (m2, "jk"), (m1, "ly"))
        else:
            factors = ((m1, "xk"), (m2, "li"), (m3, "jy"))
        (a, sa), (b, sb), (c, sc) = factors
        mul = ext.base.mul_einsum
        terms = mul(f"T_,T{sa}_->T{sa}_", scalars, a)
        terms = mul(f"T{sa}_,T{sb}_->T{sa}{sb}_", terms, b)
        terms = mul(f"T{sa}{sb}_,T{sc}_->Tijklxy_", terms, c)
        return FiniteAlgebra(
            ext.base,
            (terms.sum(axis=0) % ext.n).reshape(m, m, m, kr),
            self.unit_endo().reshape(m, kr),
            name=f"End({ext.top.name})_u[{self.side}]",
            check=False,
        )


def right_dual_algebra(c: NormalBasisCoring) -> TwistedAlgebra:
    """Hom_S(C, S) ≅ End_R(S) with (phi*psi)(s) = phi(psi(s u^1) u^2) u^3."""
    if not is_azumaya(c):
        raise ValueError("dual algebras are taken of Azumaya corings")
    return TwistedAlgebra(c.ext, c.twist, "right")


def left_dual_algebra(c: NormalBasisCoring) -> TwistedAlgebra:
    """_S Hom(C, S) ≅ End_R(S) with the mirrored product u^1 psi u^2 phi u^3."""
    if not is_azumaya(c):
        raise ValueError("dual algebras are taken of Azumaya corings")
    return TwistedAlgebra(c.ext, c.twist, "left")


# -- the descent algebra A(u) -------------------------------------------------------


def ambient_algebra(ext: Extension) -> FiniteAlgebra:
    """S ⊗ End_R(S) on the basis b_a ⊗ b_k* ⊗ b_l, componentwise product."""
    d, kr = ext.degree, ext.base.rank
    m = d**3
    eye = np.eye(d, dtype=np.int64)
    # (b_a ⊗ b_k* ⊗ b_l)(b_b ⊗ b_p* ⊗ b_q) = delta_{k q} (b_a b_b) ⊗ b_p* ⊗ b_l
    struct = np.einsum("abXt,kq,pK,lL->aklbpqXKLt", ext.rmult(), eye, eye, eye)
    # 1_S ⊗ id = sum_a one_rc[a] b_a ⊗ sum_i b_i* ⊗ b_i
    one = np.einsum("at,ik->aikt", ext.r_coords(ext.top.one), eye)
    return FiniteAlgebra(
        ext.base,
        struct.reshape(m, m, m, kr),
        one.reshape(m, kr),
        name=f"{ext.top.name}⊗End",
        check=False,
    )


def _membership_matrices(ext: Extension, u_coeffs: np.ndarray):
    """Z/nZ matrices of x -> x_1 u_3 and x -> x_2 u_4 on S ⊗ S* ⊗ S.

    Columns are indexed by (a, k, l, rho) = e_rho (b_a ⊗ b_k* ⊗ b_l); the
    common target is S ⊗ S ⊗ S* ⊗ S with the dual action on the starred
    slot: c · b_k* = sum_K rmult[c, K, k] b_K*.
    """
    d, kr = ext.degree, ext.base.rank
    n = ext.n
    slots, scalars = ext.tensor_power(3).support(u_coeffs)
    r1, r2, r3 = ext.rmult()[slots.T]
    hot1, hot2 = np.eye(d, dtype=np.int64)[slots[:, :2].T]
    e = ext.base.mulmat(scalars)
    mul = ext.base.mul_einsum
    eye = np.eye(d, dtype=np.int64)
    # x_1 u_3 = e_rho e (b_c1 ⊗ c2 b_a ⊗ b_k* ⊗ c3 b_l)
    v13 = mul("TraQ_,TlL_->TQL_alr", mul("T_r,TaQ_->TraQ_", e, r2), r3)
    l13 = np.einsum("TC,TQLzalr,kK->CQkLzaKlr", hot1, v13, eye) % n
    # x_2 u_4 = e_rho e (c1 b_a ⊗ b_c2 ⊗ c3·b_k* ⊗ b_l)
    v24 = mul("TraP_,TKk_->TPK_akr", mul("T_r,TaP_->TraP_", e, r1), r3)
    l24 = np.einsum("TC,TPKzakr,lL->PCKlzakLr", hot2, v24, eye) % n
    src = d**3 * kr
    tgt = d**4 * kr
    return l13.reshape(tgt, src), l24.reshape(tgt, src)


def gamma_matrix(ext: Extension, u_coeffs: np.ndarray) -> np.ndarray:
    """gamma(phi) = u^1 ⊗ u^3 phi u^2 on the matrix-unit basis of End_R(S).

    Columns are indexed by (i, j, rho) for e_rho epsilon_{ij} (with
    epsilon_{ij} = b_j* ⊗ b_i); rows by (a, K, L, tau) in S ⊗ S* ⊗ S.
    """
    d, kr = ext.degree, ext.base.rank
    slots, scalars = ext.tensor_power(3).support(u_coeffs)
    _, r2, r3 = ext.rmult()[slots.T]
    hot1 = np.eye(d, dtype=np.int64)[slots[:, 0]]
    mul = ext.base.mul_einsum
    # gamma(e_rho eps_ij) = e_rho e (b_c1 ⊗ c2·b_j* ⊗ c3 b_i)
    val = mul("TrKj_,TiL_->TKL_ijr", mul("T_r,TKj_->TrKj_", ext.base.mulmat(scalars), r2), r3)
    g = np.einsum("Ta,TKLzijr->aKLzijr", hot1, val) % ext.n
    return g.reshape(d**3 * kr, d**2 * kr)


def gamma_inverse_matrix(ext: Extension, v_coeffs: np.ndarray) -> np.ndarray:
    """gamma^{-1}(s ⊗ t* ⊗ t) = t* v^2 ⊗ v^1 v^3 s t, with v the cocycle inverse.

    Columns are indexed by (a, k, l, rho) in S ⊗ S* ⊗ S; rows by (I, K, tau)
    for epsilon_{IK} in End_R(S).
    """
    d, kr = ext.degree, ext.base.rank
    slots, scalars = ext.tensor_power(3).support(v_coeffs)
    rmult = ext.rmult()
    # (b_c1 b_c3)(b_a b_l) for every term and every pair (a, l), in R-coordinates
    w = algebra_from_extension(ext).products(rmult[slots[:, 0], slots[:, 2]], rmult.reshape(d * d, d * kr))
    mul = ext.base.mul_einsum
    step = mul("T_r,TKk_->TrKk_", ext.base.mulmat(scalars), rmult[slots[:, 1]])
    val = mul("TrKk_,TalI_->TIK_aklr", step, w.reshape(len(slots), d, d, d, kr))
    return (val.sum(axis=0) % ext.n).reshape(d**2 * kr, d**3 * kr)


class DescentAlgebra:
    """A(u) inside S ⊗ End_R(S), cut out by x_2 u_4 = x_1 u_3.

    solution_basis rows are Z/nZ coordinates in the (a, k, l, rho) layout of
    S ⊗ S* ⊗ S; the ambient componentwise product restricts to A(u).
    """

    def __init__(self, ext: Extension, tw: TwistElement):
        if not is_two_cocycle(tw):
            raise NotACocycleError("the descent algebra needs a unit 2-cocycle")
        self.ext = ext
        self.twist = tw
        self.ambient = ambient_algebra(ext)
        l13, l24 = _membership_matrices(ext, tw.u.coeffs)
        self._howell = zmod.howell(zmod.kernel_right((l24 - l13) % ext.n, ext.n), ext.n)
        self.solution_basis = self._howell.h
        self._check_closure_and_rank()

    def contains(self, vec: np.ndarray) -> bool:
        return zmod.in_row_span(self._howell, vec, self.ext.n)

    def _check_closure_and_rank(self) -> None:
        ext = self.ext
        n, d = ext.n, ext.degree
        expected = (n ** ext.base.rank) ** (d * d)  # |R|^(d^2)
        size = zmod.span_size(self._howell, n)
        if size != expected:
            raise InternalCheckError(
                f"A(u) does not have {expected} elements (rank d^2 = {d * d} over the base)"
            )
        basis = self.solution_basis
        products = self.ambient.products(basis, basis).reshape(-1, basis.shape[1])
        if zmod.span_size(zmod.howell(np.vstack([basis, products]), n), n) != size:
            raise InternalCheckError("A(u) is not closed under the ambient product")

    @property
    def rank_over_base(self) -> int:
        """Free R-rank of A(u), certified by the size check at construction."""
        return self.ext.degree ** 2

    def unit_vec(self) -> np.ndarray:
        return self.ambient.one.reshape(-1)


def descent_algebra(c_or_tw) -> DescentAlgebra:
    tw = c_or_tw.twist if isinstance(c_or_tw, NormalBasisCoring) else c_or_tw
    return DescentAlgebra(tw.ext, tw)


@dataclass(eq=False)
class GammaVerification:
    """gamma and gamma^{-1} with all Theorem-level checks made explicit."""

    ext: Extension
    gamma: np.ndarray = field(repr=False)
    gamma_inv: np.ndarray = field(repr=False)
    injective: bool
    image_is_descent_algebra: bool
    multiplicative: bool
    unital: bool
    two_sided_inverse: bool
    descent_rank: int  # free rank of A(u) over the base ring

    @property
    def ok(self) -> bool:
        return (
            self.injective
            and self.image_is_descent_algebra
            and self.multiplicative
            and self.unital
            and self.two_sided_inverse
        )


def gamma_map(c_or_tw) -> GammaVerification:
    """Build gamma: End_R(S)_u -> A(u) and verify it is a unital isomorphism."""
    tw = c_or_tw.twist if isinstance(c_or_tw, NormalBasisCoring) else c_or_tw
    ext = tw.ext
    n = ext.n
    d, kr = ext.degree, ext.base.rank
    if not is_two_cocycle(tw):
        raise NotACocycleError("gamma needs a unit 2-cocycle")
    alg = DescentAlgebra(ext, tw)
    g = gamma_matrix(ext, tw.u.coeffs)
    ginv = gamma_inverse_matrix(ext, tw.inverse.coeffs)
    basis = alg.solution_basis
    # one Howell form of gamma^T: its kernel is ker(gamma); its rows are A(u)'s iff the image is A(u)
    image = zmod.howell(g.T, n)
    injective = image.k.size == 0
    image_ok = image.h.shape == basis.shape and (image.h == basis).all()
    twisted = TwistedAlgebra(ext, tw, "right").algebra()
    mult = _is_multiplicative(twisted.table, g.T, alg.ambient.products, n)
    unital = ((g @ twisted.one.reshape(-1)) % n == alg.unit_vec()).all()
    inv_ok = ((ginv @ g) % n == np.eye(d * d * kr, dtype=np.int64)).all() and (
        zmod.matmul_mod(g, zmod.matmul_mod(ginv, basis.T, n), n) == basis.T
    ).all()
    return GammaVerification(
        ext,
        g,
        ginv,
        bool(injective),
        bool(image_ok),
        bool(mult),
        bool(unital),
        bool(inv_ok),
        alg.rank_over_base,
    )


# -- Azumaya algebras ------------------------------------------------------------


def enveloping_matrix(alg: FiniteAlgebra) -> np.ndarray:
    """The Z/nZ matrix of A ⊗ A^op -> End_R(A), a ⊗ b -> (x -> a x b).

    Rows run over End_R(A) coordinates (row k, column l, base index sigma);
    columns over e_rho (a_i ⊗ a_j).
    """
    m, kr, n = alg.dim, alg.base.rank, alg.n
    size = m * kr
    # right[A, l, D]: e_A a_l, with a_l = base.one at slot l
    right = np.einsum("b,AlbD->AlD", alg.base.one, alg.table.reshape(size, m, kr, size)) % n
    # (e_(i,rho) a_l) a_j at (k, sigma), one GEMM over the middle index
    cols = zmod.matmul_mod(right.reshape(size * m, size), right.reshape(size, m * size), n)
    cols = cols.reshape(m, kr, m, m, m, kr).transpose(4, 2, 5, 0, 3, 1)
    return cols.reshape(m * m * kr, m * m * kr)


def is_azumaya_algebra(alg: FiniteAlgebra) -> bool:
    """Bijectivity of the enveloping map (the algebra is free over its base)."""
    return zmod.is_invertible(enveloping_matrix(alg), alg.n)


# -- untwisting along a coboundary witness -----------------------------------------


def untwist_iso(tw: TwistElement, witness: np.ndarray) -> np.ndarray:
    """The algebra isomorphism End_R(S)_u -> End_R(S) dual to multiplication
    by a unit w with delta_1(w) = u: phi -> sum w^2 phi (w^1 ·).

    Returns the Z/nZ matrix on endomorphism coordinates after verifying the
    witness identity, multiplicativity between the two products, unitality
    and bijectivity.
    """
    ext = tw.ext
    n = ext.n
    d, kr = ext.degree, ext.base.rank
    witness = np.asarray(witness, dtype=np.int64) % n
    if (delta1(ext, witness) != tw.u.coeffs).any():
        raise WitnessError("delta_1(witness) does not equal the twist")
    slots, scalars = ext.tensor_power(2).support(witness)
    m1, m2 = _mult_mats(ext)[slots.T]
    mul = ext.base.mul_einsum
    # e_rho eps_ij -> e_rho e (mu_{b_k2} ∘ eps_ij ∘ mu_{b_k1}), summed over terms e (b_k1 ⊗ b_k2)
    val = mul("TpRi_,Tjc_->TRc_ijp", mul("T_p,TRi_->TpRi_", ext.base.mulmat(scalars), m2), m1)
    mat = (val.sum(axis=0) % n).reshape(d * d * kr, -1)
    twisted = TwistedAlgebra(ext, tw, "right").algebra()

    def compose(x, y):  # every product of two batches of R-matrices, on flat rows
        return mul("Aij_,Bjk_->ABik_", x.reshape(-1, d, d, kr), y.reshape(-1, d, d, kr))

    if not _is_multiplicative(twisted.table, mat.T, compose, n):
        raise InternalCheckError("untwisting map is not multiplicative")
    if ((mat @ twisted.one.reshape(-1)) % n != identity_endo(ext).reshape(-1)).any():
        raise InternalCheckError("untwisting map is not unital")
    if not zmod.is_invertible(mat, n):
        raise InternalCheckError("untwisting map is not bijective")
    return mat
