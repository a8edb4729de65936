"""The Amitsur complex of the units functor and its degree-2 cohomology.

For a free extension S/R the units of the tensor powers S^⊗m form a complex
with coboundaries

    delta(v) = prod_i eta_i(v)^((-1)^(i-1)),

where eta_i inserts 1 in slot i.  A 2-cocycle is a unit u of S^⊗3 with
u_1 u_2^{-1} u_3 u_4^{-1} = 1; a 2-coboundary is delta_1(v) = v_1 v_2^{-1} v_3
for a unit v of S^⊗2.  H^2 = Z^2/B^2 is computed here by exhaustive
enumeration at desk scale: Z^2 is one grid sweep of S^⊗3 (`rings.Grid`,
the cosickle form on the units), B^2 is delta_1 of all units of S^⊗2 at
once (inverses by Lagrange, v^{-1} = v^(|U|-1)), and every class is named
by the lex-least member of its coset u·B^2, found for whole batches of rows
by `sorted_cosets`.  Next to H^2 live the classical identities: the norm
|u| = u^1 u^2 u^3, its two partial-collapse identities, normalization of
cocycles, interleaving of cocycles over S⊗S, and the base-change coboundary
witness over (S⊗S)/(R⊗S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Optional

import numpy as np

from . import zmod
from .extensions import Extension, amitsur_rebase, external_extension, interleave, rebase_iso, rebase_pushforward
from .rings import DEFAULT_CAP, Grid, InternalCheckError, RingElement, RingTooLarge, enumerate_units, try_invert


class NotAUnitError(ValueError):
    pass


class NotACocycleError(ValueError):
    pass


class TwistElement:
    """An element u of S^⊗3 with cached classification data.

    Invertibility is not required: non-unit twists are legitimate inputs to
    the normal-basis machinery.  Flags and the norm are computed lazily.
    """

    def __init__(self, ext: Extension, u):
        self.ext = ext
        t3 = ext.tensor_power(3)
        if isinstance(u, RingElement):
            if u.ring != t3.ring:
                raise ValueError("twist must live in S^⊗3 of the given extension")
            self.u = u
        else:
            self.u = t3.ring.element(u)
        self._inverse: Optional[RingElement] = None
        self._inverse_known = False
        self._norm: Optional[RingElement] = None

    # -- cached classification -------------------------------------------------

    @property
    def inverse(self) -> Optional[RingElement]:
        if not self._inverse_known:
            self._inverse = try_invert(self.u)
            self._inverse_known = True
        return self._inverse

    @property
    def is_unit(self) -> bool:
        return self.inverse is not None

    def faces(self, level: int = 3) -> list[np.ndarray]:
        """u_1, ..., u_{level+1} in S^⊗(level+1)."""
        return [
            self.ext.face_map(level, i).apply_vec(self.u.coeffs) for i in range(1, level + 2)
        ]

    @property
    def is_cosickle(self) -> bool:
        """Whether u_1 u_3 = u_2 u_4 in S^⊗4 (no invertibility assumed)."""
        t4 = self.ext.tensor_power(4).ring
        u1, u2, u3, u4 = self.faces()
        return bool((t4.mul_vec(u1, u3) == t4.mul_vec(u2, u4)).all())

    @property
    def is_cocycle(self) -> bool:
        return self.is_unit and self.is_cosickle

    def partial_collapses(self) -> tuple[np.ndarray, np.ndarray]:
        """u^1 u^2 ⊗ u^3 and u^1 ⊗ u^2 u^3, as elements of S^⊗2."""
        first = self.ext.merge_map(3, first=True).apply_vec(self.u.coeffs)
        last = self.ext.merge_map(3, first=False).apply_vec(self.u.coeffs)
        return first, last

    @property
    def is_almost_invertible(self) -> bool:
        if not self.is_cosickle:
            return False
        t2 = self.ext.tensor_power(2).ring
        p, q = self.partial_collapses()
        return bool(
            zmod.batch_is_unit(np.stack([p, q]), t2.residue_fields).all()
        )

    @property
    def norm(self) -> RingElement:
        if self._norm is None:
            self._norm = self.ext.top.element(
                self.ext.collapse_map(3).apply_vec(self.u.coeffs)
            )
        return self._norm

    def __eq__(self, other):
        return isinstance(other, TwistElement) and self.ext == other.ext and self.u == other.u

    def __hash__(self):
        return hash((self.ext, self.u))

    def __repr__(self):
        return f"TwistElement({list(map(int, self.u.coeffs))} over {self.ext.name})"


def twist(ext: Extension, coeffs) -> TwistElement:
    return TwistElement(ext, coeffs)


def unit_twist(ext: Extension) -> TwistElement:
    return TwistElement(ext, ext.tensor_power(3).one_vec())


# -- coboundaries ---------------------------------------------------------------


def coboundary(ext: Extension, v, level: int) -> np.ndarray:
    """delta(v) = prod eta_i(v)^(±1) in S^⊗(level+1), for a unit v of S^⊗level.

    delta_1(v) = v_1 v_2^{-1} v_3 and delta_2(u) = u_1 u_2^{-1} u_3 u_4^{-1}
    are the level 2 and 3 instances.
    """
    tl = ext.tensor_power(level).ring
    v = np.asarray(v, dtype=np.int64) % ext.n
    inv = zmod.solve_right(tl.mulmat(v), tl.one, ext.n)
    if inv is None:
        raise NotAUnitError("coboundary is only defined on units")
    return _face_product(ext, level, v, inv, ext.tensor_power(level + 1).ring.mul_vec)


def _face_product(ext: Extension, level: int, v, v_inv, mul) -> np.ndarray:
    """eta_1(v) eta_2(v_inv) eta_3(v) ... in S^⊗(level+1).

    v and v_inv are one element or a batch of rows, and mul is mul_vec or
    mul_rows of S^⊗(level+1) to match: a single element goes through
    mul_vec, which multiplies a large tensor power slot by slot and never
    builds its dense rank^3 table.
    """
    faces = (
        zmod.matmul_mod(v if i % 2 else v_inv, ext.face_map(level, i).matrix.T, ext.n)
        for i in range(1, level + 2)
    )
    return reduce(mul, faces)


def b2_rows(ext: Extension, cap: int = DEFAULT_CAP, jobs: int = 1) -> np.ndarray:
    """B^2 = {delta_1(v) : v a unit of S^⊗2} as lex-sorted rows, cached on ext.

    The cap is checked on every call, so a cached B^2 is refused exactly
    when a fresh one would be.
    """
    t2 = ext.tensor_power(2).ring
    if t2.size > cap:
        raise RingTooLarge(f"{t2.name} has {t2.size} elements, cap is {cap}")
    if ext._b2 is None:
        units2 = enumerate_units(t2, cap=cap, jobs=jobs, as_array=True)
        inverses = t2.pow_rows(units2, len(units2) - 1)  # Lagrange: v^|U| = 1
        mul = ext.tensor_power(3).ring.mul_rows
        ext._b2 = zmod.unique_rows(_face_product(ext, 2, units2, inverses, mul))
    return ext._b2


_COSET_BLOCK = 1 << 12  # products per mul_rows call in sorted_cosets


def sorted_cosets(ext: Extension, rows: np.ndarray, b2: np.ndarray) -> Iterator[np.ndarray]:
    """The cosets row·B^2 of a batch of rows of S^⊗3, each sorted lexicographically.

    Yields arrays of shape (rows in block, |B^2|, rank), blocks in row order;
    member [i, 0] of a block is the lex-least element of its coset, and
    repeated members stay (a non-unit row may have a smaller orbit).
    """
    t3 = ext.tensor_power(3).ring
    step = max(1, _COSET_BLOCK // len(b2))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        prods = t3.mul_rows(np.repeat(block, len(b2), axis=0), np.tile(b2, (len(block), 1)))
        prods = prods.reshape(len(block), len(b2), -1)
        order = np.lexsort(np.moveaxis(prods, 2, 0)[::-1], axis=-1)
        yield np.take_along_axis(prods, order[:, :, None], axis=1)


def delta1(ext: Extension, v) -> np.ndarray:
    return coboundary(ext, v, 2)


def delta2(ext: Extension, u) -> np.ndarray:
    return coboundary(ext, u, 3)


def is_two_cocycle(tw: TwistElement) -> bool:
    """Whether u is a unit with u_1 u_2^{-1} u_3 u_4^{-1} = 1; non-units are False."""
    if not tw.is_unit:
        return False
    t4 = tw.ext.tensor_power(4).ring
    d2 = delta2(tw.ext, tw.u.coeffs)
    verdict = bool((d2 == t4.one).all())
    # the inversion-free form must agree on units
    if verdict != tw.is_cosickle:  # pragma: no cover - defensive
        raise InternalCheckError("delta_2(u) = 1 disagrees with u_1 u_3 = u_2 u_4 on a unit")
    return verdict


# -- norms and normalization ------------------------------------------------------


def norm(tw: TwistElement) -> RingElement:
    """|u| = u^1 u^2 u^3, the image of u under the collapse map."""
    return tw.norm


def check_norm_identities(tw: TwistElement) -> bool:
    """Both partial-collapse identities of the norm of a 2-cocycle:

    u^1 ⊗ |u|^{-1} u^2 u^3 = 1 ⊗ 1   and   |u|^{-1} u^1 u^2 ⊗ u^3 = 1 ⊗ 1.
    """
    if not is_two_cocycle(tw):
        raise NotACocycleError("norm identities are stated for 2-cocycles")
    ext = tw.ext
    nrm_inv = try_invert(tw.norm)
    if nrm_inv is None:
        raise NotAUnitError("norm is not invertible")
    t2 = ext.tensor_power(2).ring
    first, last = tw.partial_collapses()
    left = t2.mul_vec(ext.slot_embed(2, 1).apply_vec(nrm_inv.coeffs), first)
    right = t2.mul_vec(ext.slot_embed(2, 2).apply_vec(nrm_inv.coeffs), last)
    return bool((left == t2.one).all() and (right == t2.one).all())


def normalize(tw: TwistElement) -> tuple[TwistElement, np.ndarray]:
    """A norm-1 cocycle cohomologous to u, with its coboundary witness.

    Returns (u', w) where w = |u|^{-1} ⊗ 1 and u' = u · delta_1(w).
    """
    if not is_two_cocycle(tw):
        raise NotACocycleError("normalize is only defined on 2-cocycles")
    ext = tw.ext
    nrm_inv = try_invert(tw.norm)
    w = ext.slot_embed(2, 1).apply_vec(nrm_inv.coeffs)
    t3 = ext.tensor_power(3).ring
    u_new = t3.mul_vec(tw.u.coeffs, delta1(ext, w))
    out = TwistElement(ext, u_new)
    return out, w


# -- interleaving and base change ---------------------------------------------------


def tensor_cocycles(tw_u: TwistElement, tw_v: TwistElement):
    """The interleaved cocycle u⊗v over (S⊗S)/R from two cocycles over S/R.

    Returns (extension of S⊗S over R, TwistElement).
    """
    if tw_u.ext != tw_v.ext:
        raise ValueError("both cocycles must live over the same extension")
    if not (is_two_cocycle(tw_u) and is_two_cocycle(tw_v)):
        raise NotACocycleError("interleaving is stated for 2-cocycles")
    ext = tw_u.ext
    big = external_extension(ext, ext)
    w = interleave(ext, ext, big, 3, tw_u.u.coeffs, tw_v.u.coeffs)
    return big, TwistElement(big, w)


@dataclass
class BaseChangeWitness:
    """The coboundary witness for u⊗1 over (S⊗S)/(R⊗S).

    The witness is u itself read through the natural isomorphism
    (S⊗S)^{⊗_{R⊗S}2} ≅ S^⊗3; its coboundary equals the base-changed cocycle,
    which under (S⊗S)^{⊗_{R⊗S}3} ≅ S^⊗4 is u_4 = u_1 u_2^{-1} u_3.
    """

    rebased: Extension
    witness: np.ndarray  # coordinates in (S⊗S)^{⊗_(R⊗S) 2}
    pushed_twist: np.ndarray  # u⊗1 in (S⊗S)^{⊗_(R⊗S) 3}
    verified: bool


def base_change_witness(tw: TwistElement) -> BaseChangeWitness:
    if not is_two_cocycle(tw):
        raise NotACocycleError("base-change witness is stated for 2-cocycles")
    ext = tw.ext
    reb = amitsur_rebase(ext)
    iso2 = rebase_iso(ext, 2)
    iso3 = rebase_iso(ext, 3)
    w = (zmod.inverse_matrix(iso2, ext.n) @ tw.u.coeffs) % ext.n
    pushed = (rebase_pushforward(ext, ext.eta, 3) @ tw.u.coeffs) % ext.n
    # primed coboundary of the witness
    d1w = delta1(reb, w)
    ok = bool((d1w == pushed).all())
    # the same identity downstairs: u_4 = u_1 u_2^{-1} u_3 in S^⊗4
    t4 = ext.tensor_power(4).ring
    u1, u2, u3, u4 = tw.faces()
    u2_inv = zmod.solve_right(t4.mulmat(u2), t4.one, ext.n)
    ok = ok and (t4.mul_vec(t4.mul_vec(u1, u2_inv), u3) == u4).all()
    ok = ok and ((iso3 @ d1w) % ext.n == u4).all()
    return BaseChangeWitness(reb, w, pushed, bool(ok))


# -- H^2 ------------------------------------------------------------------------------


@dataclass
class CohomologyGroup:
    """Z^2, B^2 and coset representatives for the units functor, level 2."""

    ext: Extension
    z2: np.ndarray  # cocycle coefficient rows, lex order
    b2: np.ndarray  # coboundary coefficient rows, lex order
    representatives: np.ndarray  # lex-least element of each coset, lex order

    @property
    def order(self) -> int:
        return len(self.z2) // len(self.b2)

    def class_of(self, u: np.ndarray) -> tuple:
        """Lex-least element of the coset u·B^2."""
        u = np.asarray(u, dtype=np.int64)[None, :] % self.ext.n
        return tuple(map(int, next(sorted_cosets(self.ext, u, self.b2))[0, 0]))


def cosickle_form(ext: Extension) -> np.ndarray:
    """Q of shape (r3, r3, r4) with u_1 u_3 - u_2 u_4 = sum_ab u_a u_b Q[a, b].

    Row a of the transposed face-map matrices is the face of the basis
    element e_a, so Q[a, b] is the S^⊗4 product of faces of e_a and e_b.
    """
    t4 = ext.tensor_power(4).ring
    h = [ext.face_map(3, i).matrix.T for i in range(1, 5)]
    r3 = h[0].shape[0]

    def pair_products(x, y):
        return t4.mul_rows(np.repeat(x, r3, axis=0), np.tile(y, (r3, 1)))

    q = (pair_products(h[0], h[2]) - pair_products(h[1], h[3])) % ext.n
    return q.reshape(r3, r3, t4.rank)


def cocycle_mask(ext: Extension, units3: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-cocycle condition over rows of units of S^⊗3."""
    return ~zmod.bilinear_mod(units3, units3, cosickle_form(ext), ext.n).any(axis=1)


def compute_h2(ext: Extension, cap: int = DEFAULT_CAP, jobs: int = 1) -> CohomologyGroup:
    """Exhaustive H^2: kernel of delta_2 on units(S^⊗3) over image of delta_1.

    Z^2 is one grid pass over S^⊗3 (`rings.Grid`): the cosickle form
    evaluated on the units only, rows in lex order.
    """
    b2 = b2_rows(ext, cap=cap, jobs=jobs)
    t3 = ext.tensor_power(3).ring
    grid = Grid.of(t3, cap)
    z2 = grid.rows(grid.zero_mask(cosickle_form(ext), alive=grid.unit_mask(t3.residue_fields)))
    # B^2 ⊆ Z^2 (delta∘delta = 1): the rows of Z^2 are distinct, so B^2 adds none
    if len(zmod.unique_rows(np.vstack([z2, b2]))) != len(z2):  # pragma: no cover
        raise InternalCheckError("B^2 is not contained in Z^2")
    minima = [cosets[:, 0] for cosets in sorted_cosets(ext, z2, b2)]
    reps = zmod.unique_rows(np.concatenate(minima))
    if len(z2) % len(b2) != 0 or len(reps) * len(b2) != len(z2):  # pragma: no cover
        raise InternalCheckError("coset partition of Z^2 by B^2 is inconsistent")
    return CohomologyGroup(ext, z2, b2, reps)


def cohomologous(
    tw_u: TwistElement, tw_v: TwistElement, cap: int = DEFAULT_CAP, jobs: int = 1
) -> Optional[np.ndarray]:
    """A unit w of S^⊗2 with u = v · delta_1(w), or None; lex-least when found.

    The search is exhaustive over units of S^⊗2, processed in lexicographic
    chunks so the first hit is the canonical witness.  The defining equation
    is checked in the inversion-free form u · w_2 = v · w_1 · w_3.
    """
    if tw_u.ext != tw_v.ext:
        raise ValueError("cocycles over different extensions")
    if not (is_two_cocycle(tw_u) and is_two_cocycle(tw_v)):
        raise NotACocycleError("cohomologous is stated for 2-cocycles")
    return _witness_search(tw_u.ext, tw_u.u.coeffs, tw_v.u.coeffs, cap)


def _witness_search(ext: Extension, u_vec, v_vec, cap: int = DEFAULT_CAP) -> Optional[np.ndarray]:
    """First (lex) unit w of S^⊗2 with u · w_2 = v · w_1 · w_3, or None.

    The equation is the inversion-free form of u = v · delta_1(w); equal
    inputs short-circuit to the identity witness.  The units come from one
    grid unit mask; they are tried in lex-ordered chunks of elements,
    stopping at the first chunk with a hit.
    """
    t2 = ext.tensor_power(2).ring
    t3 = ext.tensor_power(3).ring
    u_vec = np.asarray(u_vec, dtype=np.int64) % ext.n
    v_vec = np.asarray(v_vec, dtype=np.int64) % ext.n
    if (u_vec == v_vec).all():
        return ext.tensor_power(2).one_vec()
    grid = Grid.of(t2, cap)
    is_unit = grid.unit_mask(t2.residue_fields)
    h1 = ext.face_map(2, 1).matrix.T
    h2 = ext.face_map(2, 2).matrix.T
    h3 = ext.face_map(2, 3).matrix.T
    mu_u = t3.mulmat(u_vec).T
    mu_v = t3.mulmat(v_vec).T
    chunk = 1 << 9
    for start in range(0, grid.size, chunk):
        w = grid.rows_at(start + np.flatnonzero(is_unit[start : start + chunk]))
        if not len(w):
            continue
        lhs = zmod.matmul_mod(zmod.matmul_mod(w, h2, ext.n), mu_u, ext.n)
        w1 = zmod.matmul_mod(w, h1, ext.n)
        w3 = zmod.matmul_mod(w, h3, ext.n)
        rhs = zmod.matmul_mod(t3.mul_rows(w1, w3), mu_v, ext.n)
        hits = (lhs == rhs).all(axis=1)
        if hits.any():
            return w[int(np.argmax(hits))]
    return None
