"""Free ring extensions S/R and their tensor powers S^⊗n over the base.

An Extension is a base ring R, a top ring S, a structural map eta: R -> S and
a declared R-basis of S.  Freeness (with the basis made explicit) is what
makes balanced tensor products computable: S^⊗m is presented on the basis

    e_rho * (b_{i_1} ⊗ ... ⊗ b_{i_m}),

indexed by (i_1, ..., i_m, rho) with the base index rho fastest, where e_rho
runs over the Z/nZ-basis of R and b_i over the declared R-basis of S.  Every
layer reads a coefficient vector of S^⊗m by reshaping it to this (slot...,
rho) layout, and each simplicial map is one tensor contraction on it: the
face maps eta_i inserting 1 in slot i (identities on the slots before and
after, 1_S's R-coordinates in between), the merges of the first or last two
slots (the R-valued multiplication of S on those slots), the collapse map
multiplying all slots (a product of merges), slot embeddings (products of
faces), and the natural isomorphism (S⊗T)^{⊗_T m} ≅ S^{⊗m}⊗T used for base
change.

Level 1 is S itself in its native basis; the conversion to the formal
(i, rho) layout is the coordinate isomorphism R^d ≅ S attached to the basis.

Every product of base-ring coordinates here is one FiniteRing.mul_einsum,
and every set of basis multiples x·e_rho one stacked FiniteRing.mulmat.
S^⊗m, the base change (S ⊗_R T)/T and the external product (S ⊗_R T)/R all
have TensorRing tops, kept as R-valued factor tables; a dense Z/nZ table is
their product with scalars restricted, written in the base's small dtype one
block of rows at a time (`_build_tensor_ring`, `restrict_scalars`).  Everything
derived from an extension, B^2 and the cosickle form of `amitsur` included,
is built once and kept in its one memo, `Extension._cached`.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

import numpy as np

from . import zmod
from .rings import (
    DEFAULT_RANK_CAP,
    FiniteRing,
    RingElement,
    RingHom,
    RingTooLarge,
    identity_hom,
)

# Tensor rings above this rank multiply slot by slot; their dense structure
# tables would exceed 2^18 entries.
DENSE_TABLE_MAX_RANK = 64
# The slot tuples of S^⊗m are one (m + 1)-axis np.indices array, and numpy
# allows 64 axes; only a degree-1 extension has this many slots within the
# rank cap.
MAX_TENSOR_LEVEL = 63


class Extension:
    """S free over R on a declared basis, standing in for faithfully flat."""

    def __init__(self, base: FiniteRing, top: FiniteRing, eta: RingHom, basis, name: str = ""):
        if base.n != top.n:
            raise ValueError("base and top must share the characteristic modulus")
        if eta.source != base or eta.target != top:
            raise ValueError("eta must map the base ring to the top ring")
        self.base = base
        self.top = top
        self.eta = eta
        self.basis = np.asarray(basis, dtype=np.int64) % top.n
        if self.basis.ndim != 2 or self.basis.shape[1] != top.rank:
            raise ValueError("basis rows must be coefficient vectors in the top ring")
        self.degree = self.basis.shape[0]
        self.n = top.n
        if self.degree * base.rank != top.rank:
            raise ValueError(
                f"rank mismatch: {self.degree} basis elements over a rank-{base.rank} base "
                f"cannot span a rank-{top.rank} module"
            )
        # coordinate isomorphism R^d -> S: column (a, rho) is b_a * eta(e_rho)
        self._phi = top.products(self.basis, eta.matrix.T).reshape(top.rank, top.rank).T
        try:
            self._phi_inv = zmod.inverse_matrix(self._phi, self.n)
        except ValueError:
            raise ValueError("declared basis is not a basis: coordinate map is not bijective") from None
        self.name = name or f"{top.name}/{base.name}"
        self._cache: dict = {}

    def _cached(self, key, build):
        """The memo entry under key, made by build() on first use; a failed build stores nothing."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __eq__(self, other):
        return (
            isinstance(other, Extension)
            and self.base == other.base
            and self.top == other.top
            and self.eta == other.eta
            and self.basis.shape == other.basis.shape
            and (self.basis == other.basis).all()
        )

    def __hash__(self):
        return self._cached("hash", lambda: hash((self.base, self.top, self.basis.tobytes())))

    def __repr__(self):
        return f"Extension({self.name}, degree={self.degree})"

    # -- R-coordinates --------------------------------------------------------

    def r_coords(self, vec: np.ndarray) -> np.ndarray:
        """R-coordinates of a top-ring element: shape (degree, base.rank)."""
        flat = (self._phi_inv @ (np.asarray(vec, dtype=np.int64) % self.n)) % self.n
        return flat.reshape(self.degree, self.base.rank)

    def rmult(self) -> np.ndarray:
        """R-valued multiplication tensor of S: b_i b_j = sum_a rmult[i,j,a] b_a."""
        return self._cached("rmult", self._build_rmult)

    def _build_rmult(self) -> np.ndarray:
        d = self.degree
        prods = self.top.products(self.basis, self.basis).reshape(d * d, -1)
        return zmod.matmul_mod(prods, self._phi_inv.T, self.n).reshape(d, d, d, -1)

    def rmulmat(self, vec: np.ndarray) -> np.ndarray:
        """R-matrix of multiplication by a top element, in the declared basis."""
        return self.base.mul_einsum("i_,ija_->aj_", self.r_coords(vec), self.rmult())

    # -- tensor powers ----------------------------------------------------------

    def tensor_power(self, m: int) -> "TensorPowerRing":
        """The m-fold tensor power S^⊗m over R; level 1 is S itself.

        Every refusal of a level is made here, with RingTooLarge: a rank above
        DEFAULT_RANK_CAP, or more than MAX_TENSOR_LEVEL slots.  Neither test
        forms d**m for m > MAX_TENSOR_LEVEL, nor a list of m factors: there
        the rank is above the cap exactly when d >= 2.  The message gives the
        exact rank while Python prints it (up to 4300 digits), else kr·d^m.
        """
        if m < 1:
            raise ValueError("tensor power level must be at least 1")

        def build():
            kr, d, cap = self.base.rank, self.degree, DEFAULT_RANK_CAP
            if kr * d ** min(m, MAX_TENSOR_LEVEL) > cap:
                exact = kr * d**m if m < 14300 else 10**4300  # d >= 2, so 2^14300 bounds a larger m's rank
                rank = exact if exact < 10**4300 else f"{d}^{m}" if kr == 1 else f"{kr}·{d}^{m}"
                raise RingTooLarge(f"S^⊗{m} over {self.base.name} has rank {rank}, cap is {cap}")
            if m > MAX_TENSOR_LEVEL:
                raise RingTooLarge(f"S^⊗{m} over {self.base.name} has {m} slots, cap is {MAX_TENSOR_LEVEL}")
            return TensorPowerRing(self, m)

        return self._cached(("power", m), build)

    def face_map(self, m: int, i: int) -> RingHom:
        """eta_i: S^⊗m -> S^⊗(m+1), inserting 1 in slot i (1-based)."""
        if not 1 <= i <= m + 1:
            raise ValueError(f"face index {i} out of range 1..{m + 1}")
        return self._cached(("face", m, i), lambda: self._build_face_map(m, i))

    def _build_face_map(self, m: int, i: int) -> RingHom:
        src = self.tensor_power(m)
        tgt = self.tensor_power(m + 1)
        d = self.degree
        # e[a, tau, rho]: coefficients of the a-th R-coordinate of 1_S times e_rho
        e = self.base.mulmat(self.r_coords(self.top.one))
        pre, post = np.eye(d ** (i - 1), dtype=np.int64), np.eye(d ** (m - i + 1), dtype=np.int64)
        mat = np.einsum("pP,aqtQr->paqtPQr", pre, np.einsum("qQ,atr->aqtQr", post, e))
        mat = mat.reshape(tgt.ring.rank, src.ring.rank)
        if m == 1:
            mat = (mat @ self._phi_inv) % self.n
        return RingHom(src.ring, tgt.ring, mat)

    def collapse_map(self, m: int) -> RingHom:
        """m: S^⊗m -> S, multiplying all slots."""
        return self._cached(("collapse", m), lambda: self._build_collapse_map(m))

    def _build_collapse_map(self, m: int) -> RingHom:
        mat = np.eye(self.top.rank, dtype=np.int64)
        for k in range(2, m + 1):
            mat = (mat @ self.merge_map(k, first=True).matrix) % self.n
        src = self.tensor_power(m).ring
        return RingHom(src, self.top, mat)

    def slot_embed(self, m: int, i: int) -> RingHom:
        """S -> S^⊗m placing the element in slot i and 1 elsewhere: leading 1s first, then trailing."""
        steps = [self.face_map(level, 1 if level < i else level + 1) for level in range(1, m)]
        return reduce(lambda hom, step: step.compose(hom), steps) if steps else identity_hom(self.top)

    def merge_map(self, m: int, first: bool) -> RingHom:
        """S^⊗m -> S^⊗(m-1), multiplying the first (or last) two slots."""
        if m < 2:
            raise ValueError("need at least two slots to merge")
        return self._cached(("merge", m, first), lambda: self._build_merge_map(m, first))

    def _build_merge_map(self, m: int, first: bool) -> RingHom:
        src = self.tensor_power(m)
        tgt = self.tensor_power(m - 1)
        # prod[x, y, a, t, rho]: e_rho b_x b_y has e_t b_a
        prod = self.base.mulmat(self.rmult())
        rest = np.eye(self.degree ** (m - 2), dtype=np.int64)
        spec = "xyatr,qQ->aqtxyQr" if first else "xyatr,qQ->qatQxyr"
        cols = np.einsum(spec, prod, rest).reshape(tgt.ring.rank, src.ring.rank)
        if m - 1 == 1:
            cols = (self._phi @ cols) % self.n
        return RingHom(src.ring, tgt.ring, cols)


class TensorPowerRing:
    """S^⊗m over R with basis indexed by (slot tuple, base index)."""

    def __init__(self, ext: Extension, level: int):
        self.ext = ext
        self.level = level
        if level == 1:
            self.ring = ext.top
        else:
            one_rc = ext.r_coords(ext.top.one)
            self.ring = TensorRing(
                ext.base,
                [ext.rmult()] * level,
                [one_rc] * level,
                name=f"{ext.top.name}^(x{level})/{ext.base.name}",
            )

    @property
    def rank(self) -> int:
        return self.ring.rank

    def support(self, coeffs) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero coordinates of an element as pure terms r·(b_s1 ⊗ ... ⊗ b_sm).

        Returns the slot tuples (terms, level) and the base coefficients r
        (terms, base.rank): coordinate c at (slots, rho) is the term c·e_rho.
        """
        d, kr = self.ext.degree, self.ext.base.rank
        coeffs = np.asarray(coeffs, dtype=np.int64)
        flats = np.nonzero(coeffs)[0]
        slots = np.stack(np.unravel_index(flats // kr, (d,) * self.level), axis=1)
        scalars = np.zeros((len(flats), kr), dtype=np.int64)
        scalars[np.arange(len(flats)), flats % kr] = coeffs[flats]
        return slots, scalars

    def embed_pure(self, factors: list[np.ndarray]) -> np.ndarray:
        """Coefficients of s_1 ⊗ ... ⊗ s_m from native top-ring vectors."""
        if len(factors) != self.level:
            raise ValueError("need one factor per slot")
        if self.level == 1:
            return np.asarray(factors[0], dtype=np.int64) % self.ext.n
        return _pure_tensor(self.ext.base, [self.ext.r_coords(f) for f in factors])

    def one_vec(self) -> np.ndarray:
        """Coefficients of 1⊗...⊗1: the ring's own read-only unit."""
        return self.ring.one

    def element(self, coeffs) -> RingElement:
        return self.ring.element(coeffs)


class TensorRing(FiniteRing):
    """A_1 ⊗_R ... ⊗_R A_m kept as its slot factors.

    rmults[i] has shape (d_i, d_i, d_i, base.rank) and gives the R-valued
    multiplication of the i-th factor on its R-basis; ones[i], of shape
    (d_i, base.rank), gives the R-coordinates of its unit.  The basis is
    (i_1, ..., i_m, rho) with the base index rho fastest.  The dense rank^3
    structure table is built from the factors on first use and cached, in
    the base's small dtype (`_build_tensor_ring`), the only rank^3 array the
    ring builds; below DENSE_TABLE_MAX_RANK every product reads it, above it
    `mul_vec` multiplies slot by slot with `mul_slots` and never builds it.
    """

    def __init__(self, base: FiniteRing, rmults: list[np.ndarray], ones: list[np.ndarray], name: str):
        n = base.n
        self.base = base
        self.rmults = [np.asarray(rm, dtype=np.int64) % n for rm in rmults]
        self.ones = [np.asarray(o, dtype=np.int64) % n for o in ones]
        one = _pure_tensor(base, self.ones)
        self._set_header(n, one.size, one, name)

    @cached_property
    def struct(self) -> np.ndarray:
        return _build_tensor_ring(self.base, self.rmults)

    @cached_property
    def _slot_tensors(self) -> tuple[np.ndarray, list[np.ndarray]]:
        # (i, j, a, u, t): b_i b_j has b_a in the slot and turns e_t into e_u; the first as (i t, j a u)
        first, *later = (self.base.mulmat(rm) for rm in self.rmults)
        return first.transpose(0, 4, 1, 2, 3).reshape(len(first) * self.base.rank, -1), later

    def mul_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.rank > DENSE_TABLE_MAX_RANK:
            return self.mul_slots(x, y)
        return super().mul_vec(x, y)

    def mul_slots(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x·y from the factors, slot by slot, never forming x⊗y.

        Exact int64, reduced mod n after every contraction.  The multiples
        x·e_sigma by the base basis (one stacked mulmat) meet the first slot
        tensor over (i_1, t), then y over (j_1, sigma); each later slot k
        contracts (i_k, j_k, base) of z = (d_k, rest, d_k, rest, done, base)
        with its slot tensor, so z has 6 axes at any level.
        """
        n, kr, (first, later) = self.n, self.base.rank, self._slot_tensors
        x, y = (np.asarray(v, dtype=np.int64).reshape(len(first) // kr, -1, kr) for v in (x, y))
        done, rest = x.shape[:2]
        xe = self.base.mulmat(x).transpose(1, 3, 0, 2).reshape(rest * kr, -1)  # (rest sigma, i t)
        w = zmod._mod(xe @ first, n).reshape(rest, kr * done, -1)  # (rest, sigma j, a u)
        z = zmod._mod(np.matmul(y.transpose(1, 2, 0).reshape(rest, -1), w), n)  # (rest, rest, a u)
        for mt in later:
            d, rest = len(mt), rest // len(mt)
            z = zmod._mod(np.tensordot(z.reshape(d, rest, d, rest, done, kr), mt, axes=([0, 2, 5], [0, 1, 4])), n)
            done *= d  # z: (rest, rest, done, a, u)
        return z.reshape(-1)


def _build_tensor_ring(base: FiniteRing, rmults: list[np.ndarray]) -> np.ndarray:
    """The dense structure table of A_1 ⊗_R ... ⊗_R A_m, factors as in TensorRing.

    Written straight into the base's small dtype by `_restricted_table`, one
    block of leading rows at a time.  A block's R-valued rows, for a range
    of leading slot tuples (i_1, ..., i_m), are the products of the factor
    rows rmults[s][i_s], one batched mul_einsum per factor.  Over a rank-1
    base with e_0 e_0 = e_0 a product of coordinates is a product of
    residues, so the rows are formed with np.multiply, reduced after each
    factor, in the narrowest integer type that holds (n-1)^2 (int8 over
    F2), and they are the table's rows as they are.
    """
    n, kr = base.n, base.rank
    dims = [len(rm) for rm in rmults]
    slots = np.indices(dims).reshape(len(dims), -1)  # the slot tuple of each leading index
    plain = kr == 1 and base.struct[0, 0, 0] == 1
    if plain:
        wide = np.promote_types(np.min_scalar_type(-((n - 1) ** 2)), base.struct.dtype)
        rmults = [rm.astype(wide) for rm in rmults]

    def rows(lo: int, hi: int) -> np.ndarray:
        acc = rmults[0][slots[0, lo:hi]]
        for rm, idx in zip(rmults[1:], slots[1:, lo:hi]):
            if plain:  # (X, J, j, A, a, 1): the rank-1 mul_einsum below, narrow
                acc = np.multiply(acc[:, :, None, :, None], rm[idx][:, None, :, None, :])
                np.remainder(acc, n, out=acc)
            else:
                acc = base.mul_einsum("XJA_,Xja_->XJjAa_", acc, rm[idx])
            x, big, small = len(acc), acc.shape[1], acc.shape[2]
            acc = acc.reshape(x, big * small, big * small, kr)
        return acc

    return _restricted_table(base, math.prod(dims), rows)


def restrict_scalars(base: FiniteRing, rtable: np.ndarray) -> np.ndarray:
    """The Z/nZ table of an R-algebra from its R-valued table (b_i b_j on b_k).

    T[(i,a),(j,b),(k,t)] is coordinate t of (e_a e_b)·rtable[i, j, k], the
    product of e_a b_i and e_b b_j, with flat indices i * base.rank + a.
    The table is in the base's small dtype, written one block of leading
    rows at a time (`_restricted_table`); over a rank-1 base with
    e_0 e_0 = e_0 it is rtable itself, reduced mod n.
    """
    rtable = np.asarray(rtable)
    return _restricted_table(base, len(rtable), lambda lo, hi: rtable[lo:hi])


def _restricted_table(base: FiniteRing, dim: int, rows) -> np.ndarray:
    """The Z/nZ table, (dim·kr)^3 in the base's small dtype, of an R-algebra
    of dimension dim whose R-valued table has the leading rows rows(lo, hi).

    One block of at most zmod.BLOCK_ENTRIES table entries at a time (at
    least one row): whole leading indices i, or, when the base rank kr is
    larger than a block, base indices a of one i.  The block's rows
    e_a b_i are one mul_einsum of base.struct[a-block] with rows(i-block),
    reduced mod n; over a rank-1 base with e_0 e_0 = e_0 they are
    rows(i-block) reduced.  No other array as large as the table is made.
    """
    n, kr = base.n, base.rank
    size = dim * kr
    table = np.empty((size,) * 3, dtype=base.struct.dtype)
    out = table.reshape(dim, kr, size * size)
    step = zmod.block_rows(size * size)  # table rows per block
    lead = max(1, step // kr)
    plain = kr == 1 and base.struct[0, 0, 0] == 1
    for i in range(0, dim, lead):
        block = rows(i, i + lead)
        for a in range(0, kr, step):
            if plain:
                part = np.remainder(block, n)
            else:
                part = base.mul_einsum("ab_,ijk_->iajbk_", base.struct[a : a + step], block)
            out[i : i + len(block), a : a + step] = part.reshape(len(block), -1, size * size)
    return table


def _pure_tensor(base: FiniteRing, coords: list[np.ndarray]) -> np.ndarray:
    """Coefficients of s_1 ⊗ ... ⊗ s_m from the R-coordinates (d_i, base.rank) of each s_i."""
    acc = np.asarray(coords[0], dtype=np.int64) % base.n
    for c in coords[1:]:
        acc = base.mul_einsum("I_,i_->Ii_", acc, c).reshape(-1, base.rank)
    return acc.reshape(-1)


# -- base change and external products ----------------------------------------


def rebase_extension(ext: Extension, t_ring: FiniteRing, rho: RingHom) -> Extension:
    """Base change along rho: R -> T, producing (S ⊗_R T) / T.

    The new top ring is S ⊗_R T on the Z/nZ-basis (b_i ⊗ t_sigma), sigma
    fastest, with declared T-basis {b_i ⊗ 1} and structural map t -> 1 ⊗ t.
    Taking T = S with rho = eta yields the extension (S⊗S)/(R⊗S) of the
    Amitsur complex, after the standard identification R⊗S ≅ S.
    """
    if rho.source != ext.base or rho.target != t_ring:
        raise ValueError("rho must map the base of the extension to the new base ring")
    # S ⊗_R T is free over T on b_i ⊗ 1: b_i b_j = sum_a rho(rmult[i,j,a]) b_a
    return ext._cached(("rebased", t_ring, rho.matrix.tobytes()), lambda: _tensor_extension(
        t_ring,
        [ext.rmult() @ rho.matrix.T],
        [ext.r_coords(ext.top.one) @ rho.matrix.T],
        name=f"({ext.top.name}(x){t_ring.name})",
    ))


def rebase_pushforward(ext: Extension, rho: RingHom, m: int) -> np.ndarray:
    """Matrix of S^⊗m -> (S⊗T)^{⊗_T m}, x -> image of x under slotwise (· ⊗ 1).

    On the formal bases this is kron(I_{d^m}, rho.matrix): slot indices are
    preserved and the base coefficient e_ρ is pushed to rho(e_ρ) in T.
    """
    d = ext.degree
    mat = np.kron(np.eye(d**m, dtype=np.int64), rho.matrix) % ext.n
    if m == 1:
        mat = (mat @ ext._phi_inv) % ext.n
    return mat


def amitsur_rebase(ext: Extension) -> Extension:
    """The extension (S⊗S)/(R⊗S) ≅ (S⊗S)/S used by the base-change lemma."""
    return rebase_extension(ext, ext.top, ext.eta)


def rebase_iso(ext: Extension, m: int) -> np.ndarray:
    """Matrix of the natural isomorphism (S⊗S)^{⊗_S m} -> S^{⊗(m+1)}.

    (s_1⊗t_1)⊗...⊗(s_m⊗t_m) -> s_1⊗...⊗s_m⊗(t_1...t_m).  On the formal
    bases, with the base index fastest, this is kron(I_{d^m}, phi^{-1}) where
    phi is the coordinate isomorphism of the original extension: slot indices
    pass through and the base element lands in the last slot.
    """
    d = ext.degree
    # the rebased top ring's native basis (b_i ⊗ t_sigma) is already the
    # formal layout, so the kron applies at every level
    return np.kron(np.eye(d**m, dtype=np.int64), ext._phi_inv) % ext.n


def external_extension(ext_s: Extension, ext_t: Extension) -> Extension:
    """The extension (S ⊗_R T) / R from two extensions of the same base."""
    if ext_s.base != ext_t.base:
        raise ValueError("external products need a common base ring")
    return ext_s._cached(("external", ext_t), lambda: _tensor_extension(
        ext_s.base,
        [ext_s.rmult(), ext_t.rmult()],
        [ext_s.r_coords(ext_s.top.one), ext_t.r_coords(ext_t.top.one)],
        name=f"({ext_s.top.name}(x){ext_t.top.name})",
    ))


def _tensor_extension(
    base: FiniteRing, rmults: list[np.ndarray], ones: list[np.ndarray], name: str
) -> Extension:
    """The TensorRing of the factors as an extension of base, free on b_i ⊗ 1.

    The top is validated up to rank 32; eta sends e_rho to e_rho·(1 ⊗ ... ⊗ 1).
    """
    top = TensorRing(base, rmults, ones, name=name)
    if top.rank <= 32:
        top.validate()
    eta_mat = base.mulmat(top.one.reshape(-1, base.rank))
    eta = RingHom(base, top, eta_mat.reshape(top.rank, base.rank))
    basis = np.kron(np.eye(top.rank // base.rank, dtype=np.int64), base.one)
    return Extension(base, top, eta, basis, name=f"{name}/{base.name}")


def interleave(
    ext_s: Extension, ext_t: Extension, ext_st: Extension, m: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Slotwise interleaving S^⊗m x T^⊗m -> (S⊗T)^⊗m over the common base.

    u^1⊗...⊗u^m and v^1⊗...⊗v^m combine to (u^1⊗v^1)⊗...⊗(u^m⊗v^m).
    """
    if not 1 <= m <= 3:
        raise ValueError("interleaving implemented for levels 1..3")
    n = ext_s.n
    kr = ext_s.base.rank
    ds, dt = ext_s.degree, ext_t.degree
    uu = (u if m > 1 else (ext_s._phi_inv @ u) % n).reshape((ds,) * m + (kr,)).astype(np.int64)
    vv = (v if m > 1 else (ext_t._phi_inv @ v) % n).reshape((dt,) * m + (kr,)).astype(np.int64)
    # slots a, b, c of u and d, e, f of v interleave as a, d, b, e, c, f
    us, vs = "abc"[:m], "def"[:m]
    spec = f"{us}_,{vs}_->{''.join(a + b for a, b in zip(us, vs))}_"
    flat = ext_s.base.mul_einsum(spec, uu, vv).reshape(-1)
    if m == 1:
        flat = (ext_st._phi @ flat) % n
    return flat
