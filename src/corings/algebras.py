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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import zmod
from .amitsur import TwistElement, delta1, is_two_cocycle, NotACocycleError
from .coring import NormalBasisCoring, is_azumaya
from .extensions import Extension
from .rings import FiniteRing, InternalCheckError, try_invert


class WitnessError(ValueError):
    """A claimed coboundary witness fails its defining identity."""


class FiniteAlgebra:
    """An associative unital algebra, free over a finite commutative base ring.

    Elements are R-coordinate arrays of shape (dim, base.rank); the structure
    tensor has shape (dim, dim, dim, base.rank).  Commutativity is not
    assumed.
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

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        c_r = self.base.struct.astype(np.int64)
        pair = np.einsum("ia,jb,abt->ijt", x.astype(np.int64), y.astype(np.int64), c_r) % self.n
        return np.einsum("ijp,ijkq,pqt->kt", pair, self.struct, c_r) % self.n

    def basis_coords(self, i: int) -> np.ndarray:
        out = np.zeros((self.dim, self.base.rank), dtype=np.int64)
        out[i] = self.base.one
        return out

    def opposite(self) -> "FiniteAlgebra":
        return FiniteAlgebra(
            self.base,
            self.struct.transpose(1, 0, 2, 3),
            self.one,
            name=f"{self.name}^op",
            check=False,
        )

    def is_commutative(self) -> bool:
        return not ((self.struct - self.struct.transpose(1, 0, 2, 3)) % self.n).any()

    def validate(self) -> None:
        one_ok = all(
            (self.mul(self.one, self.basis_coords(i)) == self.basis_coords(i)).all()
            and (self.mul(self.basis_coords(i), self.one) == self.basis_coords(i)).all()
            for i in range(self.dim)
        )
        if not one_ok:
            raise ValueError(f"{self.name}: unit law fails")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mul(self.basis_coords(i), self.basis_coords(j))
                for k in range(self.dim):
                    lhs = self.mul(ij, self.basis_coords(k))
                    rhs = self.mul(self.basis_coords(i), self.mul(self.basis_coords(j), self.basis_coords(k)))
                    if (lhs != rhs).any():
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


def _rmat_compose(ext: Extension, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Composition of R-matrices: (a ∘ b)[i,k] = sum_j a[i,j] b[j,k] in R."""
    c_r = ext.base.struct.astype(np.int64)
    return np.einsum("ija,jkb,abt->ikt", a.astype(np.int64), b.astype(np.int64), c_r) % ext.n


def identity_endo(ext: Extension) -> np.ndarray:
    d, kr = ext.degree, ext.base.rank
    out = np.zeros((d, d, kr), dtype=np.int64)
    for i in range(d):
        out[i, i] = ext.base.one
    return out


def _matrix_units(ext: Extension) -> np.ndarray:
    """The R-matrices eps_ij (base.one at entry (i, j)), in row-major (i, j) order."""
    d = ext.degree
    out = np.zeros((d * d, d, d, ext.base.rank), dtype=np.int64)
    rows, cols = np.divmod(np.arange(d * d), d)
    out[np.arange(d * d), rows, cols] = ext.base.one
    return out


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
        # one term per support coordinate: coefficient, base index, slot matrices
        self._slot_mats = [
            (coeff, pi, *(ext.rmulmat(ext.basis[k]) for k in slots))
            for coeff, pi, slots in _twist_support(ext, tw.u.coeffs)
        ]
        self._algebra: Optional[FiniteAlgebra] = None

    def product(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """The twisted product of two endomorphisms given as R-matrices."""
        ext = self.ext
        d, kr = ext.degree, ext.base.rank
        c_r = ext.base.struct.astype(np.int64)
        out = np.zeros((d, d, kr), dtype=np.int64)
        for coeff, pi, m1, m2, m3 in self._slot_mats:
            if self.side == "right":
                term = _rmat_compose(ext, m3, _rmat_compose(ext, phi, _rmat_compose(ext, m2, _rmat_compose(ext, psi, m1))))
            else:
                term = _rmat_compose(ext, m1, _rmat_compose(ext, psi, _rmat_compose(ext, m2, _rmat_compose(ext, phi, m3))))
            out = (out + coeff * (term @ c_r[pi])) % ext.n
        return out

    def unit_endo(self) -> np.ndarray:
        """The unit: multiplication by |u|^{-1}."""
        nrm_inv = try_invert(self.twist.norm)
        return self.ext.rmulmat(nrm_inv.coeffs)

    def algebra(self) -> FiniteAlgebra:
        """Structure constants on the matrix-unit basis (realized lazily)."""
        if self._algebra is None:
            ext = self.ext
            d, kr = ext.degree, ext.base.rank
            m = d * d
            struct = np.zeros((m, m, m, kr), dtype=np.int64)
            basis = _matrix_units(ext)
            for a in range(m):
                for b in range(m):
                    struct[a, b] = self.product(basis[a], basis[b]).reshape(m, kr)
            self._algebra = FiniteAlgebra(
                ext.base,
                struct,
                self.unit_endo().reshape(m, kr),
                name=f"End({ext.top.name})_u[{self.side}]",
                check=False,
            )
        return self._algebra


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
    rmult = ext.rmult().astype(np.int64)
    struct = np.zeros((d, d, d, d, d, d, d, d, d, kr), dtype=np.int64)
    # (b_a ⊗ b_k* ⊗ b_l)(b_a' ⊗ b_k'* ⊗ b_l') = delta_{k l'} (b_a b_a') ⊗ b_k'* ⊗ b_l
    for k in range(d):
        for kp in range(d):
            for l in range(d):
                struct[:, k, l, :, kp, k, :, kp, l] = rmult
    one = np.zeros((d, d, d, kr), dtype=np.int64)
    one_rc = ext.r_coords(ext.top.one)
    for i in range(d):
        for a in range(d):
            # 1_S ⊗ id = sum_a one_rc[a] b_a ⊗ sum_i b_i* ⊗ b_i
            one[a, i, i] = one_rc[a]
    return FiniteAlgebra(
        ext.base,
        struct.reshape(m, m, m, kr),
        one.reshape(m, kr),
        name=f"{ext.top.name}⊗End",
        check=False,
    )


def _twist_support(ext: Extension, coeffs: np.ndarray) -> list[tuple[int, int, tuple]]:
    """(coefficient, base index pi, slots (c1, c2, c3)) per nonzero coordinate of a twist."""
    t3 = ext.tensor_power(3)
    out = []
    for flat in np.nonzero(coeffs)[0]:
        slots, pi = t3.unflatten(int(flat))
        out.append((int(coeffs[flat]), pi, slots))
    return out


def _membership_matrices(ext: Extension, u_coeffs: np.ndarray):
    """Z/nZ matrices of x -> x_1 u_3 and x -> x_2 u_4 on S ⊗ S* ⊗ S.

    Columns are indexed by (a, k, l, rho) = e_rho (b_a ⊗ b_k* ⊗ b_l); the
    common target is S ⊗ S ⊗ S* ⊗ S with the dual action on the starred
    slot: c · b_k* = sum_K rmult[c, K, k] b_K*.
    """
    d, kr = ext.degree, ext.base.rank
    n = ext.n
    rmult = ext.rmult().astype(np.int64)
    c_r = ext.base.struct.astype(np.int64)
    l13 = np.zeros((d, d, d, d, kr, d, d, d, kr), dtype=np.int64)
    l24 = np.zeros((d, d, d, d, kr, d, d, d, kr), dtype=np.int64)
    for coeff, pi, (c1, c2, c3) in _twist_support(ext, u_coeffs):
        for rho in range(kr):
            q = (coeff * c_r[rho, pi]) % n
            # x_1 u_3 = e_rho e_pi (b_c1 ⊗ c2 b_a ⊗ b_k* ⊗ c3 b_l)
            step = np.einsum("t,aQv,tvs->aQs", q, rmult[c2], c_r) % n
            val = np.einsum("aQs,lLw,swz->aQlLz", step, rmult[c3], c_r) % n
            for k in range(d):
                l13[c1, :, k, :, :, :, k, :, rho] = (
                    l13[c1, :, k, :, :, :, k, :, rho] + val.transpose(1, 3, 4, 0, 2)
                ) % n
            # x_2 u_4 = e_rho e_pi (c1 b_a ⊗ b_c2 ⊗ c3·b_k* ⊗ b_l)
            step = np.einsum("t,aPv,tvs->aPs", q, rmult[c1], c_r) % n
            val = np.einsum("aPs,Kkw,swz->aPKkz", step, rmult[c3], c_r) % n
            for l in range(d):
                l24[:, c2, :, l, :, :, :, l, rho] = (
                    l24[:, c2, :, l, :, :, :, l, rho] + val.transpose(1, 2, 4, 0, 3)
                ) % n
    src = d**3 * kr
    tgt = d**4 * kr
    return l13.reshape(tgt, src), l24.reshape(tgt, src)


def gamma_matrix(ext: Extension, u_coeffs: np.ndarray) -> np.ndarray:
    """gamma(phi) = u^1 ⊗ u^3 phi u^2 on the matrix-unit basis of End_R(S).

    Columns are indexed by (i, j, rho) for e_rho epsilon_{ij} (with
    epsilon_{ij} = b_j* ⊗ b_i); rows by (a, K, L, tau) in S ⊗ S* ⊗ S.
    """
    d, kr = ext.degree, ext.base.rank
    n = ext.n
    rmult = ext.rmult().astype(np.int64)
    c_r = ext.base.struct.astype(np.int64)
    g = np.zeros((d, d, d, kr, d, d, kr), dtype=np.int64)
    for coeff, pi, (c1, c2, c3) in _twist_support(ext, u_coeffs):
        for rho in range(kr):
            q = (coeff * c_r[rho, pi]) % n
            # gamma(e_rho eps_ij) = e_rho e_pi (b_c1 ⊗ c2·b_j* ⊗ c3 b_i)
            step = np.einsum("t,Kjv,tvs->Kjs", q, rmult[c2], c_r) % n
            val = np.einsum("Kjs,iLw,swz->KjiLz", step, rmult[c3], c_r) % n
            g[c1, :, :, :, :, :, rho] = (
                g[c1, :, :, :, :, :, rho] + val.transpose(0, 3, 4, 2, 1)
            ) % n
    return g.reshape(d**3 * kr, d**2 * kr)


def gamma_inverse_matrix(ext: Extension, v_coeffs: np.ndarray) -> np.ndarray:
    """gamma^{-1}(s ⊗ t* ⊗ t) = t* v^2 ⊗ v^1 v^3 s t, with v the cocycle inverse.

    Columns are indexed by (a, k, l, rho) in S ⊗ S* ⊗ S; rows by (I, K, tau)
    for epsilon_{IK} in End_R(S).
    """
    d, kr = ext.degree, ext.base.rank
    n = ext.n
    top = ext.top
    rmult = ext.rmult().astype(np.int64)
    c_r = ext.base.struct.astype(np.int64)
    g = np.zeros((d, d, kr, d, d, d, kr), dtype=np.int64)
    for coeff, pi, (c1, c2, c3) in _twist_support(ext, v_coeffs):
        for rho in range(kr):
            q = (coeff * c_r[rho, pi]) % n
            step = np.einsum("t,Kkv,tvs->Kks", q, rmult[c2], c_r) % n
            for a in range(d):
                for l in range(d):
                    w = top.mul_vec(
                        top.mul_vec(ext.basis[c1], ext.basis[c3]),
                        top.mul_vec(ext.basis[a], ext.basis[l]),
                    )
                    rc_w = ext.r_coords(w).astype(np.int64)
                    val = np.einsum("Kks,Iw,swz->KkIz", step, rc_w, c_r) % n
                    g[:, :, :, a, :, l, rho] = (
                        g[:, :, :, a, :, l, rho] + val.transpose(2, 0, 3, 1)
                    ) % n
    return g.reshape(d**2 * kr, d**3 * kr)


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
        self.solution_basis = zmod.howell(zmod.kernel_right((l24 - l13) % ext.n, ext.n), ext.n).h
        self._check_closure_and_rank()

    def contains(self, vec: np.ndarray) -> bool:
        hf = zmod.howell(self.solution_basis, self.ext.n)
        return zmod.in_row_span(hf, vec, self.ext.n)

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        kr = self.ext.base.rank
        m = self.ambient.dim
        prod = self.ambient.mul(x.reshape(m, kr), y.reshape(m, kr))
        return prod.reshape(-1)

    def _check_closure_and_rank(self) -> None:
        ext = self.ext
        d = ext.degree
        hf = zmod.howell(self.solution_basis, ext.n)
        expected = (ext.n ** ext.base.rank) ** (d * d)  # |R|^(d^2)
        if zmod.span_size(hf, ext.n) != expected:
            raise InternalCheckError(
                f"A(u) does not have {expected} elements (rank d^2 = {d * d} over the base)"
            )
        for x in self.solution_basis:
            for y in self.solution_basis:
                if not self.contains(self.multiply(x, y)):
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


class GammaVerification:
    """gamma and gamma^{-1} with all Theorem-level checks made explicit."""

    def __init__(
        self,
        ext: Extension,
        gamma: np.ndarray,
        gamma_inv: np.ndarray,
        injective: bool,
        image_is_descent_algebra: bool,
        multiplicative: bool,
        unital: bool,
        two_sided_inverse: bool,
        descent_rank: int,
    ):
        self.ext = ext
        self.gamma = gamma
        self.gamma_inv = gamma_inv
        self.injective = injective
        self.image_is_descent_algebra = image_is_descent_algebra
        self.multiplicative = multiplicative
        self.unital = unital
        self.two_sided_inverse = two_sided_inverse
        self.descent_rank = descent_rank  # free rank of A(u) over the base ring

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
    injective = zmod.kernel_right(g, n).size == 0
    image_ok = zmod.same_row_span(g.T, alg.solution_basis, n)
    twisted = TwistedAlgebra(ext, tw, "right")
    basis = _matrix_units(ext)
    mult = all(
        (
            (g @ twisted.product(phi, psi).reshape(-1)) % n
            == alg.multiply((g @ phi.reshape(-1)) % n, (g @ psi.reshape(-1)) % n)
        ).all()
        for phi in basis
        for psi in basis
    )
    unital = ((g @ twisted.unit_endo().reshape(-1)) % n == alg.unit_vec()).all()
    inv_ok = ((ginv @ g) % n == np.eye(d * d * kr, dtype=np.int64)).all() and all(
        ((g @ ((ginv @ row) % n)) % n == row % n).all() for row in alg.solution_basis
    )
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
    m = alg.dim
    kr = alg.base.rank
    n = alg.n
    c_r = alg.base.struct.astype(np.int64)
    cols = np.zeros((m * m * kr, m * m * kr), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            for rho in range(kr):
                left = (alg.basis_coords(i) @ c_r[rho]) % n
                endo = np.zeros((m, m, kr), dtype=np.int64)
                for l in range(m):
                    endo[:, l, :] = alg.mul(alg.mul(left, alg.basis_coords(l)), alg.basis_coords(j))
                cols[:, (i * m + j) * kr + rho] = endo.reshape(-1)
    return cols


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
    t2 = ext.tensor_power(2)
    c_r = ext.base.struct.astype(np.int64)
    theta = np.zeros((d, d, kr, d, d, kr), dtype=np.int64)
    for flat in np.nonzero(witness)[0]:
        (k1, k2), pi = t2.unflatten(int(flat))
        coeff = int(witness[flat])
        m1 = ext.rmulmat(ext.basis[k1])
        m2 = ext.rmulmat(ext.basis[k2])
        for rho in range(kr):
            q = (coeff * c_r[rho, pi]) % n
            # e_rho eps_ij -> q · (mu_{b_k2} ∘ eps_ij ∘ mu_{b_k1})
            step = np.einsum("t,riv,tvs->ris", q, m2.astype(np.int64), c_r) % n
            val = np.einsum("ris,jcw,swz->ricjz", step, m1.astype(np.int64), c_r) % n
            theta[:, :, :, :, :, rho] = (
                theta[:, :, :, :, :, rho] + val.transpose(0, 2, 4, 1, 3)
            ) % n
    mat = theta.reshape(d * d * kr, d * d * kr)
    twisted = TwistedAlgebra(ext, tw, "right")
    basis = _matrix_units(ext)
    for phi in basis:
        for psi in basis:
            lhs = (mat @ twisted.product(phi, psi).reshape(-1)) % n
            a = ((mat @ phi.reshape(-1)) % n).reshape(d, d, kr)
            b = ((mat @ psi.reshape(-1)) % n).reshape(d, d, kr)
            rhs = _rmat_compose(ext, a, b).reshape(-1)
            if (lhs != rhs).any():
                raise InternalCheckError("untwisting map is not multiplicative")
    if ((mat @ twisted.unit_endo().reshape(-1)) % n != identity_endo(ext).reshape(-1)).any():
        raise InternalCheckError("untwisting map is not unital")
    if not zmod.is_invertible(mat, n):
        raise InternalCheckError("untwisting map is not bijective")
    return mat
