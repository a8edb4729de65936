"""Free ring extensions S/R and their tensor powers S^⊗n over the base.

An Extension is a base ring R, a top ring S, a structural map eta: R -> S and
a declared R-basis of S.  Freeness (with the basis made explicit) is what
makes balanced tensor products computable: S^⊗m is presented on the basis

    e_rho * (b_{i_1} ⊗ ... ⊗ b_{i_m}),

indexed by (i_1, ..., i_m, rho) with the base index rho fastest, where e_rho
runs over the Z/nZ-basis of R and b_i over the declared R-basis of S.  All
the simplicial machinery lives here: the face maps eta_i inserting 1 in slot
i, the collapse map multiplying all slots, slot embeddings, partial-slot
merges, and the natural isomorphism (S⊗T)^{⊗_T m} ≅ S^{⊗m}⊗T used for base
change.

Level 1 is S itself in its native basis; the conversion to the formal
(i, rho) layout is the coordinate isomorphism R^d ≅ S attached to the basis.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import zmod
from .rings import (
    DEFAULT_RANK_CAP,
    FiniteRing,
    RingElement,
    RingHom,
    RingTooLarge,
)

# Tensor rings above this rank multiply slot by slot; their dense structure
# tables would exceed 2^18 entries.
DENSE_TABLE_MAX_RANK = 64


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
        # coordinate isomorphism R^d -> S: column (a, rho) is eta(e_rho) * b_a
        cols = [
            top.mul_vec(eta.matrix[:, rho], ba) for ba in self.basis for rho in range(base.rank)
        ]
        self._phi = np.stack(cols, axis=1) % self.n
        if not zmod.is_invertible(self._phi, self.n):
            raise ValueError("declared basis is not a basis: coordinate map is not bijective")
        self._phi_inv = zmod.inverse_matrix(self._phi, self.n)
        self.name = name or f"{top.name}/{base.name}"
        self._rmult = None
        self._powers: dict[int, TensorPowerRing] = {}
        self._face_maps: dict[tuple[int, int], RingHom] = {}
        self._collapse: dict[int, RingHom] = {}
        self._merges: dict[tuple[int, bool], RingHom] = {}
        self._b2: np.ndarray | None = None  # amitsur.b2_rows
        self._rebased: dict[tuple, Extension] = {}
        self._external: dict[Extension, Extension] = {}

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
        if not hasattr(self, "_hash"):
            self._hash = hash((self.base, self.top, self.basis.tobytes()))
        return self._hash

    def __repr__(self):
        return f"Extension({self.name}, degree={self.degree})"

    # -- R-coordinates --------------------------------------------------------

    def r_coords(self, vec: np.ndarray) -> np.ndarray:
        """R-coordinates of a top-ring element: shape (degree, base.rank)."""
        flat = (self._phi_inv @ (np.asarray(vec, dtype=np.int64) % self.n)) % self.n
        return flat.reshape(self.degree, self.base.rank)

    def rmult(self) -> np.ndarray:
        """R-valued multiplication tensor of S: b_i b_j = sum_a rmult[i,j,a] b_a."""
        if self._rmult is None:
            d = self.degree
            out = np.zeros((d, d, d, self.base.rank), dtype=np.int64)
            for i in range(d):
                for j in range(i, d):
                    rc = self.r_coords(self.top.mul_vec(self.basis[i], self.basis[j]))
                    out[i, j] = rc
                    out[j, i] = rc
            self._rmult = out
        return self._rmult

    def rmulmat(self, vec: np.ndarray) -> np.ndarray:
        """R-matrix of multiplication by a top element, in the declared basis."""
        d = self.degree
        out = np.zeros((d, d, self.base.rank), dtype=np.int64)
        for j in range(d):
            out[:, j, :] = self.r_coords(self.top.mul_vec(vec, self.basis[j]))
        return out

    # -- tensor powers ----------------------------------------------------------

    def tensor_power(self, m: int, rank_cap: int = DEFAULT_RANK_CAP) -> "TensorPowerRing":
        """The m-fold tensor power S^⊗m over R; level 1 is S itself."""
        if m < 1:
            raise ValueError("tensor power level must be at least 1")
        if m not in self._powers:
            rank = self.base.rank * self.degree**m
            if rank > rank_cap:
                raise RingTooLarge(
                    f"S^⊗{m} over {self.base.name} has rank {rank}, cap is {rank_cap}"
                )
            self._powers[m] = TensorPowerRing(self, m)
        return self._powers[m]

    def face_map(self, m: int, i: int) -> RingHom:
        """eta_i: S^⊗m -> S^⊗(m+1), inserting 1 in slot i (1-based)."""
        if not 1 <= i <= m + 1:
            raise ValueError(f"face index {i} out of range 1..{m + 1}")
        key = (m, i)
        if key not in self._face_maps:
            self._face_maps[key] = self._build_face_map(m, i)
        return self._face_maps[key]

    def _build_face_map(self, m: int, i: int) -> RingHom:
        src = self.tensor_power(m)
        tgt = self.tensor_power(m + 1)
        d, kr = self.degree, self.base.rank
        one_rc = self.r_coords(self.top.one)  # (d, kr)
        c_r = self.base.struct.astype(np.int64)
        # E[rho, a, tau] = coefficients of e_rho * (1_S's a-th R-coordinate)
        e = np.einsum("as,rst->rat", one_rc, c_r) % self.n
        pre = d ** (i - 1)
        post_src = d ** (m - (i - 1))
        mat = np.zeros((tgt.ring.rank, kr * d**m), dtype=np.int64)
        tgtv = mat.reshape(pre, d, post_src, kr, pre, post_src, kr)
        for a in range(d):
            for rho in range(kr):
                for tau in range(kr):
                    if e[rho, a, tau] == 0:
                        continue
                    idx = np.arange(pre)
                    jdx = np.arange(post_src)
                    tgtv[idx[:, None], a, jdx[None, :], tau, idx[:, None], jdx[None, :], rho] = e[
                        rho, a, tau
                    ]
        if m == 1:
            mat = (mat @ self._phi_inv) % self.n
        return RingHom(src.ring, tgt.ring, mat, check=(tgt.ring.rank <= 100))

    def collapse_map(self, m: int) -> RingHom:
        """m: S^⊗m -> S, multiplying all slots."""
        if m not in self._collapse:
            src = self.tensor_power(m)
            if m == 1:
                self._collapse[m] = RingHom(
                    src.ring, self.top, np.eye(self.top.rank, dtype=np.int64), check=False
                )
            else:
                cols = np.zeros((self.top.rank, src.ring.rank), dtype=np.int64)
                for flat, (slots, rho) in enumerate(src.iter_basis()):
                    acc = self.eta.matrix[:, rho]
                    for s in slots:
                        acc = self.top.mul_vec(acc, self.basis[s])
                    cols[:, flat] = acc
                self._collapse[m] = RingHom(src.ring, self.top, cols, check=(src.ring.rank <= 100))
        return self._collapse[m]

    def slot_embed(self, m: int, i: int) -> RingHom:
        """S -> S^⊗m placing the element in slot i and 1 elsewhere."""
        hom = None
        level = 1
        # insert leading 1s first, then trailing
        for _ in range(i - 1):
            step = self.face_map(level, 1)
            hom = step if hom is None else step.compose(hom)
            level += 1
        while level < m:
            step = self.face_map(level, level + 1)
            hom = step if hom is None else step.compose(hom)
            level += 1
        if hom is None:
            hom = RingHom(self.top, self.top, np.eye(self.top.rank, dtype=np.int64), check=False)
        return hom

    def merge_map(self, m: int, first: bool) -> RingHom:
        """S^⊗m -> S^⊗(m-1), multiplying the first (or last) two slots."""
        if m < 2:
            raise ValueError("need at least two slots to merge")
        key = (m, first)
        if key not in self._merges:
            self._merges[key] = self._build_merge_map(m, first)
        return self._merges[key]

    def _build_merge_map(self, m: int, first: bool) -> RingHom:
        src = self.tensor_power(m)
        tgt = self.tensor_power(m - 1)
        d, kr = self.degree, self.base.rank
        rmult = self.rmult()
        c_r = self.base.struct.astype(np.int64)
        cols = np.zeros((tgt.ring.rank, src.ring.rank), dtype=np.int64)
        for flat, (slots, rho) in enumerate(src.iter_basis()):
            if first:
                prod_rc = rmult[slots[0], slots[1]]  # (d, kr) over target slot index
                rest = slots[2:]
                merged_pos = 0
            else:
                prod_rc = rmult[slots[-2], slots[-1]]
                rest = slots[:-2]
                merged_pos = len(rest)
            for a in range(d):
                coeff = (prod_rc[a] @ c_r[rho]) % self.n
                if not coeff.any():
                    continue
                new_slots = rest[:merged_pos] + (a,) + rest[merged_pos:]
                base_flat = tgt.flat_index(new_slots, 0)
                cols[base_flat : base_flat + kr, flat] = (
                    cols[base_flat : base_flat + kr, flat] + coeff
                ) % self.n
        if m - 1 == 1:
            cols = (self._phi @ cols) % self.n
        return RingHom(src.ring, tgt.ring, cols, check=(src.ring.rank <= 100))


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

    def iter_basis(self):
        """Yields (slot tuple, base index) in flat order (base index fastest)."""
        d, kr = self.ext.degree, self.ext.base.rank
        for flat in range(d**self.level * kr):
            yield self.unflatten(flat)

    def flat_index(self, slots, rho: int) -> int:
        d, kr = self.ext.degree, self.ext.base.rank
        idx = 0
        for s in slots:
            idx = idx * d + s
        return idx * kr + rho

    def unflatten(self, flat: int):
        d, kr = self.ext.degree, self.ext.base.rank
        rho = flat % kr
        idx = flat // kr
        slots = []
        for _ in range(self.level):
            slots.append(idx % d)
            idx //= d
        return tuple(reversed(slots)), rho

    def embed_pure(self, factors: list[np.ndarray]) -> np.ndarray:
        """Coefficients of s_1 ⊗ ... ⊗ s_m from native top-ring vectors."""
        if len(factors) != self.level:
            raise ValueError("need one factor per slot")
        if self.level == 1:
            return np.asarray(factors[0], dtype=np.int64) % self.ext.n
        c_r = self.ext.base.struct.astype(np.int64)
        acc = self.ext.r_coords(factors[0])  # (d, kr)
        for f in factors[1:]:
            rc = self.ext.r_coords(f)
            acc = np.einsum("Ir,is,rst->Iit", acc, rc, c_r).reshape(-1, self.ext.base.rank) % self.ext.n
        return acc.reshape(-1) % self.ext.n

    def one_vec(self) -> np.ndarray:
        """Coefficients of 1⊗...⊗1, built once and read-only."""
        return self._one

    @cached_property
    def _one(self) -> np.ndarray:
        one = self.embed_pure([self.ext.top.one] * self.level)
        one.flags.writeable = False
        return one

    def element(self, coeffs) -> RingElement:
        return self.ring.element(coeffs)


class TensorRing(FiniteRing):
    """A_1 ⊗_R ... ⊗_R A_m kept as its slot factors.

    rmults[i] has shape (d_i, d_i, d_i, base.rank) and gives the R-valued
    multiplication of the i-th factor on its R-basis; ones[i], of shape
    (d_i, base.rank), gives the R-coordinates of its unit.  The basis is
    (i_1, ..., i_m, rho) with the base index rho fastest.  The dense rank^3
    structure table is built from the factors on first use and cached; below
    DENSE_TABLE_MAX_RANK every product reads it, above it `mul_vec` multiplies
    slot by slot with `mul_slots` and never builds it.
    """

    def __init__(self, base: FiniteRing, rmults: list[np.ndarray], ones: list[np.ndarray], name: str):
        n = base.n
        self.base = base
        self.rmults = [np.asarray(rm, dtype=np.int64) % n for rm in rmults]
        self.ones = [np.asarray(o, dtype=np.int64) % n for o in ones]
        self._c_r = base.struct.astype(np.int64)
        one = _tensor_unit(base, self.ones)
        self._set_header(n, one.size, one, name)

    @cached_property
    def struct(self) -> np.ndarray:
        return _build_tensor_ring(self.base, self.rmults, self.ones, self.name).struct

    @cached_property
    def _slot_tensors(self) -> list[np.ndarray]:
        # (i, j, a, t, u): b_i b_j has b_a in the slot and turns e_t into e_u
        return [np.einsum("ijap,ptu->ijatu", rm, self._c_r) % self.n for rm in self.rmults]

    def mul_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.rank > DENSE_TABLE_MAX_RANK:
            return self.mul_slots(x, y)
        return super().mul_vec(x, y)

    def mul_slots(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x·y from the factors: x⊗y over the base, then one slot at a time.

        Exact int64 arithmetic, reduced mod n after every contraction of at
        most d_i²·base.rank terms.
        """
        n, kr = self.n, self.base.rank
        dims = tuple(rm.shape[0] for rm in self.rmults)
        x = np.asarray(x, dtype=np.int64).reshape(-1, kr)
        y = np.asarray(y, dtype=np.int64).reshape(-1, kr)
        xc = np.tensordot(x, self._c_r, axes=(1, 0)) % n  # (I, s, t)
        z = np.einsum("Ist,Js->IJt", xc, y) % n
        z = z.reshape(dims + dims + (kr,))
        # axes of z: x slots left, y slots left, finished slots, base
        for k, mt in enumerate(self._slot_tensors):
            left = len(dims) - k
            z = np.tensordot(z, mt, axes=([0, left, z.ndim - 1], [0, 1, 3])) % n
        return z.reshape(-1)


def _build_tensor_ring(
    base: FiniteRing, rmults: list[np.ndarray], ones: list[np.ndarray], name: str
) -> FiniteRing:
    """A_1 ⊗_R ... ⊗_R A_m with its dense structure table, factors as in TensorRing."""
    n = base.n
    c_r = base.struct.astype(np.int64)
    acc = rmults[0].astype(np.int64) % n
    dim = rmults[0].shape[0]
    for rm in rmults[1:]:
        acc = np.einsum("IJAr,ijas,rst->IiJjAat", acc, rm.astype(np.int64), c_r) % n
        dim *= rm.shape[0]
        acc = acc.reshape(dim, dim, dim, base.rank)
    if base.rank == 1:
        struct = acc.reshape(dim, dim, dim)
    else:
        full = np.einsum("IJAm,psk,kmt->IpJsAt", acc, c_r, c_r) % n
        k = dim * base.rank
        struct = full.reshape(k, k, k)
    return FiniteRing(n, struct, _tensor_unit(base, ones), name=name, check=False)


def _tensor_unit(base: FiniteRing, ones: list[np.ndarray]) -> np.ndarray:
    """Coefficients of 1 ⊗ ... ⊗ 1 from the R-coordinates of each factor's unit."""
    n = base.n
    c_r = base.struct.astype(np.int64)
    acc = ones[0].astype(np.int64) % n
    for o in ones[1:]:
        acc = np.einsum("Ir,is,rst->Iit", acc, o.astype(np.int64), c_r).reshape(-1, base.rank) % n
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
    cache_key = (t_ring, rho.matrix.tobytes())
    if cache_key in ext._rebased:
        return ext._rebased[cache_key]
    n = ext.n
    d, kt = ext.degree, t_ring.rank
    tt = t_ring.struct.astype(np.int64)
    # (b_i ⊗ t_s)(b_j ⊗ t_t) = sum_a b_a ⊗ rho(rmult[i,j,a]) t_s t_t
    rho_r = np.einsum("ijam,wm->ijaw", ext.rmult().astype(np.int64), rho.matrix) % n
    tmp = np.einsum("ijav,vsw->ijasw", rho_r, tt) % n  # rho(r) * t_s
    full = np.einsum("ijasw,wtu->isjtau", tmp, tt) % n
    k = d * kt
    struct = full.reshape(k, k, k)
    one_img = np.einsum("am,wm->aw", ext.r_coords(ext.top.one).astype(np.int64), rho.matrix) % n
    top = FiniteRing(
        n, struct, one_img.reshape(-1), name=f"({ext.top.name}(x){t_ring.name})", check=(k <= 32)
    )
    # structural map: t_sigma -> 1_S ⊗ t_sigma = sum_a b_a ⊗ rho(one_rc[a]) t_sigma
    eta_mat = np.einsum("av,vsw->aws", one_img, tt).reshape(k, kt) % n
    eta = RingHom(t_ring, top, eta_mat, check=(k <= 100))
    basis = np.zeros((d, k), dtype=np.int64)
    for i in range(d):
        row = np.zeros((d, kt), dtype=np.int64)
        row[i] = t_ring.one
        basis[i] = row.reshape(-1)
    out = Extension(t_ring, top, eta, basis, name=f"{top.name}/{t_ring.name}")
    ext._rebased[cache_key] = out
    return out


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
    if ext_t in ext_s._external:
        return ext_s._external[ext_t]
    base = ext_s.base
    n = base.n
    one_s = ext_s.r_coords(ext_s.top.one)
    one_t = ext_t.r_coords(ext_t.top.one)
    top = TensorRing(
        base,
        [ext_s.rmult(), ext_t.rmult()],
        [one_s, one_t],
        name=f"({ext_s.top.name}(x){ext_t.top.name})",
    )
    if top.rank <= 32:
        top.validate()
    # eta: e_rho -> e_rho * (1_S ⊗ 1_T)
    c_r = base.struct.astype(np.int64)
    one_top = top.one.reshape(-1, base.rank)
    eta_mat = np.einsum("rst,As->Atr", c_r, one_top).reshape(top.rank, base.rank) % n
    eta = RingHom(base, top, eta_mat, check=(top.rank <= 100))
    ds, dt = ext_s.degree, ext_t.degree
    kr = base.rank
    basis = np.zeros((ds * dt, top.rank), dtype=np.int64)
    for i in range(ds):
        for j in range(dt):
            row = np.zeros((ds, dt, kr), dtype=np.int64)
            row[i, j] = base.one
            basis[i * dt + j] = row.reshape(-1)
    out = Extension(base, top, eta, basis, name=f"{top.name}/{base.name}")
    ext_s._external[ext_t] = out
    return out


def interleave(
    ext_s: Extension, ext_t: Extension, ext_st: Extension, m: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Slotwise interleaving S^⊗m x T^⊗m -> (S⊗T)^⊗m over the common base.

    u^1⊗...⊗u^m and v^1⊗...⊗v^m combine to (u^1⊗v^1)⊗...⊗(u^m⊗v^m).
    """
    n = ext_s.n
    kr = ext_s.base.rank
    ds, dt = ext_s.degree, ext_t.degree
    uu = (u if m > 1 else (ext_s._phi_inv @ u) % n).reshape((ds,) * m + (kr,)).astype(np.int64)
    vv = (v if m > 1 else (ext_t._phi_inv @ v) % n).reshape((dt,) * m + (kr,)).astype(np.int64)
    c_r = ext_s.base.struct.astype(np.int64)
    if m == 3:
        out = np.einsum("abcr,xyzs,rst->axbyczt", uu, vv, c_r) % n
    elif m == 2:
        out = np.einsum("abr,xys,rst->axbyt", uu, vv, c_r) % n
    elif m == 1:
        out = np.einsum("ar,xs,rst->axt", uu, vv, c_r) % n
    else:
        raise ValueError("interleaving implemented for levels 1..3")
    flat = out.reshape(-1)
    if m == 1:
        flat = (ext_st._phi @ flat) % n
    return flat
