"""The Amitsur complex of the units functor and its degree-2 cohomology.

For a free extension S/R the units of the tensor powers S^⊗m form a complex
with coboundaries

    delta(v) = prod_i eta_i(v)^((-1)^(i-1)),

where eta_i inserts 1 in slot i.  A 2-cocycle is a unit u of S^⊗3 with
u_1 u_2^{-1} u_3 u_4^{-1} = 1; a 2-coboundary is delta_1(v) = v_1 v_2^{-1} v_3
for a unit v of S^⊗2.  H^2 = Z^2/B^2 is computed here by exhaustive
enumeration at desk scale: Z^2 is one grid sweep of S^⊗3 (`rings.Grid`,
the cosickle form on the units) and B^2 is delta_1 of all units of S^⊗2 at
once (inverses by powers, v^{-1} = v^(L-1)).  H^2(S/R, U) = 1 over a finite
base (README, "Mathematics"), so compute_h2 forms no coset: it checks
Z^2 = B^2 row for row, names the one class by z2[0], and only then proves
every row of Z^2 a unit cocycle in one batch.  A TwistElement on a row of
Z^2 reads its inverse and verdicts from that proof, and
`classify.BrauerClass` names every class by B^2 membership.
Next to H^2 live the classical identities: the norm |u| = u^1 u^2 u^3, its
two partial-collapse identities, normalization of cocycles, interleaving
of cocycles over S⊗S, and the base-change coboundary witness over
(S⊗S)/(R⊗S).  The lex-first unit w of S^⊗2 with u·w_2 = v·w_1·w_3
(`_witness_search`) is found from one linear map and one quadratic form
fixed by u and v.  A TwistElement decides each fact about its twist once
and keeps it; B^2, the cosickle form and its zero set, and the Z^2
inverses are kept in the memo of their extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from . import zmod
from .extensions import Extension, amitsur_rebase, external_extension, interleave, rebase_iso, rebase_pushforward
from .rings import DEFAULT_CAP, Grid, InternalCheckError, RingElement, check_cap, enumerate_units, try_invert

COSICKLE_CONDITION = "u1*u3 == u2*u4"


class NotAUnitError(ValueError):
    pass


class NotACocycleError(ValueError):
    pass


class TwistElement:
    """An element u of S^⊗3 with cached classification data.

    Invertibility is not required: non-unit twists are legitimate inputs to
    the normal-basis machinery.  Verdicts, inverses and the norm are kept.
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

    # -- cached classification -------------------------------------------------

    @cached_property
    def inverse(self) -> Optional[RingElement]:
        """u^{-1}: kept by compute_h2 for a row of Z^2, else `try_invert`."""
        inv = (_kept_z2(self.ext) or {}).get(self.u.coeffs.tobytes())
        return try_invert(self.u) if inv is None else self.u.ring.element(inv)

    def inverted(self) -> "TwistElement":
        """The twist u^{-1} of a unit u, its own inverse already known to be u."""
        if self.inverse is None:
            raise NotAUnitError("only a unit twist has an inverse twist")
        out = TwistElement(self.ext, self.inverse)
        out.inverse = self.u  # (u^{-1})^{-1} = u: the cached_property reads it
        return out

    @property
    def is_unit(self) -> bool:
        return self.inverse is not None

    def faces(self) -> list[np.ndarray]:
        """u_1, ..., u_4 in S^⊗4."""
        return [self.ext.face_map(3, i).apply_vec(self.u.coeffs) for i in range(1, 5)]

    @property
    def is_kept(self) -> bool:
        """Whether u is a row of the Z^2 that compute_h2 proved and kept."""
        return self.u.coeffs.tobytes() in (_kept_z2(self.ext) or {})

    @cached_property
    def is_cosickle(self) -> bool:
        """Whether u_1 u_3 = u_2 u_4 in S^⊗4 (no invertibility assumed).

        A kept row of Z^2 returns the verdict that compute_h2 proved on it;
        any other u multiplies its own four faces.
        """
        if self.is_kept:
            return True
        t4 = self.ext.tensor_power(4).ring
        u1, u2, u3, u4 = self.faces()
        return bool((t4.mul_vec(u1, u3) == t4.mul_vec(u2, u4)).all())

    @property
    def is_cocycle(self) -> bool:
        return self.is_unit and self.is_cosickle

    @cached_property
    def is_two_cocycle(self) -> bool:
        """A unit with delta_2(u) = 1; must agree with is_cosickle.

        A row of the Z^2 that compute_h2 kept takes delta_2 = 1 from its
        proof; any other unit builds delta_2 from the cached inverse, and a
        unit cocycle outside a kept Z^2 means the sweep missed it.
        """
        if self.is_kept:
            verdict = True
        elif not self.is_unit:
            return False
        else:
            d2 = _face_product(self.ext, 3, self.u.coeffs, self.inverse.coeffs)
            verdict = bool((d2 == self.ext.tensor_power(4).ring.one).all())
            if verdict and _kept_z2(self.ext) is not None:
                raise InternalCheckError("a unit 2-cocycle outside the kept Z^2: the sweep missed a cocycle")
        if verdict != self.is_cosickle:  # pragma: no cover - defensive
            raise InternalCheckError("delta_2(u) = 1 disagrees with u_1 u_3 = u_2 u_4 on a unit")
        return verdict

    def partial_collapses(self) -> tuple[np.ndarray, np.ndarray]:
        """u^1 u^2 ⊗ u^3 and u^1 ⊗ u^2 u^3, as elements of S^⊗2."""
        first = self.ext.merge_map(3, first=True).apply_vec(self.u.coeffs)
        last = self.ext.merge_map(3, first=False).apply_vec(self.u.coeffs)
        return first, last

    @cached_property
    def is_almost_invertible(self) -> bool:
        """A cosickle whose two partial collapses are units of S^⊗2 (`try_invert`)."""
        if not self.is_cosickle:
            return False
        t2 = self.ext.tensor_power(2).ring
        return all(try_invert(t2.element(v)) is not None for v in self.partial_collapses())

    @cached_property
    def norm(self) -> RingElement:
        return self.ext.top.element(self.ext.collapse_map(3).apply_vec(self.u.coeffs))

    @cached_property
    def norm_inverse(self) -> Optional[RingElement]:
        """|u|^{-1} in S, or None when the norm is not a unit."""
        return try_invert(self.norm)

    def __eq__(self, other):
        return isinstance(other, TwistElement) and self.ext == other.ext and self.u == other.u

    def __hash__(self):
        return hash((self.ext, self.u))

    def __repr__(self):
        return f"TwistElement({list(map(int, self.u.coeffs))} over {self.ext.name})"


def unit_twist(ext: Extension) -> TwistElement:
    return TwistElement(ext, ext.tensor_power(3).one_vec())


# -- coboundaries ---------------------------------------------------------------


def coboundary(ext: Extension, v, level: int) -> np.ndarray:
    """delta(v) = prod eta_i(v)^(±1) in S^⊗(level+1), for a unit v of S^⊗level.

    delta_1(v) = v_1 v_2^{-1} v_3 and delta_2(u) = u_1 u_2^{-1} u_3 u_4^{-1}
    are the level 2 and 3 instances.
    """
    v = ext.tensor_power(level).ring.element(v)
    inv = try_invert(v)
    if inv is None:
        raise NotAUnitError("coboundary is only defined on units")
    return _face_product(ext, level, v.coeffs, inv.coeffs)


def _face_product(ext: Extension, level: int, v, v_inv) -> np.ndarray:
    """eta_1(v) eta_2(v_inv) eta_3(v) ... in S^⊗(level+1), for one element or a batch of rows.

    A batch multiplies through mul_rows.  A single element goes through
    mul_vec, which multiplies a large tensor power slot by slot and never
    builds its dense rank^3 table.
    """
    ring = ext.tensor_power(level + 1).ring
    faces = (_face_rows(ext, level, v if i % 2 else v_inv, i) for i in range(1, level + 2))
    return reduce(ring.mul_rows if np.ndim(v) == 2 else ring.mul_vec, faces)


def _face_rows(ext: Extension, level: int, rows, i: int) -> np.ndarray:
    """eta_i of one element or a batch of rows of S^⊗level, in S^⊗(level+1)."""
    return zmod.matmul_mod(rows, ext.face_map(level, i).matrix.T, ext.n)


def b2_rows(ext: Extension, cap: int = DEFAULT_CAP, jobs: int = 1) -> np.ndarray:
    """B^2 = {delta_1(v) : v a unit of S^⊗2} as lex-sorted rows, cached on ext.

    The units are inverted in one checked batch (`_inverted_rows`).  Their
    count is checked against |U| = n^r · prod(1 - 1/q_i) over the residue
    fields F_(q_i) that the enumeration built; a mismatch raises
    InternalCheckError.
    The cap is checked on every call, so a cached B^2 is refused exactly
    when a fresh one would be.
    """
    t2 = ext.tensor_power(2).ring
    check_cap(t2, cap)

    def build():
        units2 = enumerate_units(t2, cap=cap, jobs=jobs, as_array=True)
        expected = t2.size
        for p, start, stop in t2.residue_fields.fields:
            q = p ** (stop - start)
            expected = expected // q * (q - 1)
        if len(units2) != expected:
            raise InternalCheckError(f"{len(units2)} units enumerated in {t2.name}, {expected} by residue fields")
        inverses = _inverted_rows(t2, units2, f"v·v^(L-1) != 1 for a unit v of {t2.name}")
        return zmod.unique_rows(_face_product(ext, 2, units2, inverses))

    return ext._cached("b2", build)


def _inverted_rows(ring, group: np.ndarray, failure: str) -> np.ndarray:
    """v^(L-1) for every row v of a finite group of units, checked v·v^(L-1) = 1, else
    InternalCheckError(failure); L is `FiniteRing.unit_exponent`, or |group| by Lagrange."""
    inverses = ring.pow_rows(group, (ring.unit_exponent or len(group)) - 1)
    if not (ring.mul_rows(group, inverses) == ring.one).all():
        raise InternalCheckError(failure)
    return inverses


def delta1(ext: Extension, v) -> np.ndarray:
    return coboundary(ext, v, 2)


def delta2(ext: Extension, u) -> np.ndarray:
    return coboundary(ext, u, 3)


def is_two_cocycle(tw: TwistElement) -> bool:
    """Whether u is a unit with delta_2(u) = 1, decided once per twist (`TwistElement`)."""
    return tw.is_two_cocycle


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
    nrm_inv = tw.norm_inverse
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
    w = ext.slot_embed(2, 1).apply_vec(tw.norm_inverse.coeffs)
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
    iso3 = rebase_iso(ext, 3)
    # rebase_iso(ext, 2) is kron(I, phi^{-1}), so its inverse is kron(I, phi)
    w = (tw.u.coeffs.reshape(-1, ext.top.rank) @ ext._phi.T % ext.n).reshape(-1)
    pushed = (rebase_pushforward(ext, ext.eta, 3) @ tw.u.coeffs) % ext.n
    # primed coboundary of the witness
    d1w = delta1(reb, w)
    ok = bool((d1w == pushed).all())
    # the same identity downstairs: u_4 = u_1 u_2^{-1} u_3 in S^⊗4
    t4 = ext.tensor_power(4).ring
    u1, _, u3, u4 = tw.faces()
    u2_inv = ext.face_map(3, 2).apply_vec(tw.inverse.coeffs)  # face maps are ring maps
    ok = ok and (t4.mul_vec(t4.mul_vec(u1, u2_inv), u3) == u4).all()
    ok = ok and ((iso3 @ d1w) % ext.n == u4).all()
    return BaseChangeWitness(reb, w, pushed, bool(ok))


# -- H^2 ------------------------------------------------------------------------------


@dataclass
class CohomologyGroup:
    """Z^2, B^2 and class representatives for the units functor, level 2."""

    ext: Extension
    z2: np.ndarray  # cocycle coefficient rows, lex order
    b2: np.ndarray  # coboundary coefficient rows, lex order
    representatives: np.ndarray  # lex-least element of each class: z2[:1], as Z^2 = B^2

    @property
    def order(self) -> int:
        return len(self.z2) // len(self.b2)


def cosickle_form(ext: Extension) -> np.ndarray:
    """Q of shape (r3, r3, r4) with u_1 u_3 - u_2 u_4 = sum_ab u_a u_b Q[a, b].

    Row a of the transposed face-map matrices is the face of the basis
    element e_a, so Q[a, b] is the S^⊗4 product of faces of e_a and e_b.
    Built once per extension, cached on it and returned read-only.
    """

    def build():
        t4 = ext.tensor_power(4).ring
        h = [ext.face_map(3, i).matrix.T for i in range(1, 5)]
        q = (t4.products(h[0], h[2]) - t4.products(h[1], h[3])) % ext.n
        q.flags.writeable = False
        return q

    return ext._cached("cosickle", build)


def cosickle_zeros(ext: Extension, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Mask of the cosickles among all of S^⊗3, lex order: the zero set of
    the cosickle form, read-only.

    One `Grid.zero_mask` sweep per extension, kept in its memo next to
    `cosickle_form`; compute_h2 and classify_all both read it.  The cap is
    checked on every call, so a kept mask is refused exactly when a fresh
    sweep would be.
    """
    grid = Grid.of(ext.tensor_power(3).ring, cap)

    def build():
        mask = grid.zero_mask(cosickle_form(ext))
        mask.flags.writeable = False
        return mask

    return ext._cached("cosickle_zeros", build)


def cocycle_mask(ext: Extension, units3: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-cocycle condition over rows of units of S^⊗3."""
    return ~zmod.bilinear_mod(units3, units3, cosickle_form(ext), ext.n).any(axis=1)


def compute_h2(ext: Extension, cap: int = DEFAULT_CAP, jobs: int = 1) -> CohomologyGroup:
    """Exhaustive H^2: kernel of delta_2 on units(S^⊗3) over image of delta_1.

    Z^2 = cosickles ∧ units, rows in lex order, from the two masks of S^⊗3
    kept on the extension and its ring (`cosickle_zeros`,
    `FiniteRing.unit_mask`).  H^2(S/R, U) = 1 over a finite R
    (Chase–Rosenberg), and Z^2 and B^2 are both distinct rows in lex order,
    so Z^2 = B^2 is checked row for row and z2[0] names the one class.
    Then one batch, from the faces eta_1..eta_4 of Z^2 and eta_2, eta_4 of
    the inverses (`_inverted_rows`), proves u·u^{-1} = 1, delta_2(u) = 1
    and u_1 u_3 = u_2 u_4 on every row: the one proof of these facts, kept
    as the inverses by row bytes, where TwistElement reads them.  A failed
    check raises InternalCheckError and keeps nothing.
    """
    b2 = b2_rows(ext, cap=cap, jobs=jobs)
    t3 = ext.tensor_power(3).ring
    z2 = Grid.of(t3, cap).rows(cosickle_zeros(ext, cap) & t3.unit_mask(cap))

    def prove():
        inv = _inverted_rows(t3, z2, f"u·u^(L-1) != 1 for a row of Z^2 in {t3.name}")
        t4 = ext.tensor_power(4).ring
        u13 = t4.mul_rows(_face_rows(ext, 3, z2, 1), _face_rows(ext, 3, z2, 3))
        if not (t4.mul_rows(u13, t4.mul_rows(_face_rows(ext, 3, inv, 2), _face_rows(ext, 3, inv, 4))) == t4.one).all():
            raise InternalCheckError(f"delta_2(u) != 1 for a row of Z^2 in {t3.name}")
        if not (u13 == t4.mul_rows(_face_rows(ext, 3, z2, 2), _face_rows(ext, 3, z2, 4))).all():
            raise InternalCheckError("delta_2(u) = 1 disagrees with u_1 u_3 = u_2 u_4 on a unit")
        inv.flags.writeable = False
        return {u.tobytes(): v for u, v in zip(z2, inv)}

    if len(z2) != len(b2):
        raise InternalCheckError(f"|Z^2| = {len(z2)} != |B^2| = {len(b2)}, but H^2(S/R, U) = 1 over a finite base")
    if not (z2 == b2).all():
        raise InternalCheckError("B^2 is not contained in Z^2")
    ext._cached("z2_inverses", prove)
    return CohomologyGroup(ext, z2, b2, z2[:1])


def _kept_z2(ext: Extension) -> Optional[dict]:
    """The inverses of the rows of Z^2 that compute_h2 proved, by row bytes, or None before it ran."""
    return ext._cache.get("z2_inverses")


def cohomologous(
    tw_u: TwistElement, tw_v: TwistElement, cap: int = DEFAULT_CAP, jobs: int = 1
) -> Optional[np.ndarray]:
    """A unit w of S^⊗2 with u = v · delta_1(w), or None; 1⊗1 when u = v.

    Otherwise the search is exhaustive over the units of S^⊗2, in lexicographic
    blocks, so the witness it returns is the lex-least.  The defining equation
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
    inputs short-circuit to the identity witness; either way the witness is
    a fresh row the caller owns.  The sides are the linear map A = eta_2 · mu_u (r2 × r3) and the quadratic form
    F[a, b] = eta_1(e_a) · eta_3(e_b) · v (r2 × r2 × r3), built once; the
    units of one grid unit mask are tried in lex-ordered blocks, one
    `matmul_mod` and one `bilinear_mod` each, up to the first hit.
    """
    t2 = ext.tensor_power(2).ring
    t3 = ext.tensor_power(3).ring
    u_vec = np.asarray(u_vec, dtype=np.int64) % ext.n
    v_vec = np.asarray(v_vec, dtype=np.int64) % ext.n
    if (u_vec == v_vec).all():
        return ext.tensor_power(2).one_vec().copy()
    grid = Grid.of(t2, cap)
    units = np.flatnonzero(t2.unit_mask(cap))
    h1, h2, h3 = (ext.face_map(2, i).matrix.T for i in (1, 2, 3))
    lin = zmod.matmul_mod(h2, t3.mulmat(u_vec).T, ext.n)
    h13 = t3.products(h1, h3).reshape(t2.rank * t2.rank, t3.rank)
    form = zmod.matmul_mod(h13, t3.mulmat(v_vec).T, ext.n).reshape(t2.rank, t2.rank, t3.rank)
    step = zmod.block_rows(t2.rank * t3.rank)
    for start in range(0, len(units), step):
        w = grid.rows_at(units[start : start + step])
        hits = (zmod.matmul_mod(w, lin, ext.n) == zmod.bilinear_mod(w, w, form, ext.n)).all(axis=1)
        if hits.any():
            return w[int(np.argmax(hits))].copy()
    return None
