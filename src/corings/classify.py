"""Cosickle census, monoid quotients, Brauer classes and refinement compare.

A 2-cosickle is any u in S^⊗3 (invertible or not) with u_1 u_3 = u_2 u_4;
it is almost invertible when the partial collapses u^1 u^2 ⊗ u^3 and
u^1 ⊗ u^2 u^3 are units of S^⊗2.  Sweeping all of S^⊗3 yields the chain

    unit 2-cocycles  ⊂  almost invertible cosickles  ⊂  cosickles,

which under twisting matches Azumaya corings ⊂ counital corings ⊂
coassociative comultiplications with normal basis.  Dividing the two
cosickle monoids by the coboundary group B^2 (orbits on lex keys,
`Grid.keys`) gives the monoids whose invertible parts recover H^2.
Brauer classes of Azumaya normal-basis corings are cocycle classes;
corings over different extensions of the same base are compared after
refining both to S⊗T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Optional

import numpy as np

from . import zmod
from .amitsur import (
    COSICKLE_CONDITION, TwistElement, _witness_search, b2_rows, cosickle_form, cosickle_zeros, is_two_cocycle,
    unit_twist,
)
from .coring import (
    NormalBasisCoring, canonical_coring, coassoc_difference, external_product, is_azumaya, term_coproducts
)
from .extensions import Extension
from .rings import DEFAULT_CAP, Grid, InternalCheckError


def is_cosickle(ext: Extension, u) -> bool:
    """The S^⊗4 identity u_1 u_3 = u_2 u_4; u need not be a unit."""
    return TwistElement(ext, np.asarray(u, dtype=np.int64) % ext.n).is_cosickle


def is_almost_invertible(ext: Extension, u) -> bool:
    """Cosickle with both partial collapses invertible in S^⊗2."""
    return TwistElement(ext, np.asarray(u, dtype=np.int64) % ext.n).is_almost_invertible


def counit_solvable(ext: Extension, rows: np.ndarray) -> np.ndarray:
    """Whether a counit exists for the twist u, for every row u of a batch:
    an element v of S with u^1 v u^2 ⊗ u^3 = 1⊗1 = u^1 ⊗ u^2 v u^3.

    That is the linear system A(u)·v = (1⊗1, 1⊗1) over Z/nZ, with
    A(u) = [mulmat(μ₁u)·e₁ ; mulmat(μ₂u)·e₂], independent of the
    partial-collapse invertibility route.  A(u) is linear in u: column s of
    its upper block is the product μ₁(u)·e₁(b_s) in S^⊗2.  So one
    `products` per half builds the tensor T (r₃, 2 r₂, rank S) with
    A(u) = Σ_t u_t T[t]; the systems of a block of rows are one
    `zmod.matmul_mod` against T, decided against (1⊗1, 1⊗1) by
    `zmod.solvable_right_batch`: one batched elimination per prime power of
    n, with no scalar Howell call.  The tests keep the per-element solve as
    `conftest.counit_solution`.
    """
    t2 = ext.tensor_power(2).ring
    halves = [
        t2.products(ext.merge_map(3, first=first).matrix.T, ext.slot_embed(2, slot).matrix.T)
        for first, slot in ((True, 1), (False, 2))
    ]
    systems = np.concatenate(halves, axis=2).transpose(0, 2, 1)
    flat = systems.reshape(len(systems), -1)
    rhs = np.concatenate([t2.one, t2.one])
    out = np.empty(len(rows), dtype=bool)
    step = zmod.block_rows(flat.shape[1])
    for s in range(0, len(rows), step):
        stack = zmod.matmul_mod(rows[s : s + step], flat, ext.n).reshape(-1, *systems.shape[1:])
        out[s : s + step] = zmod.solvable_right_batch(stack, rhs, ext.n)
    return out


def _coassoc_difference_tensor(ext: Extension) -> np.ndarray:
    """D with vec((Delta_u⊗id)Delta_u - (id⊗Delta_u)Delta_u) = sum u_i u_j D[i,j,:].

    Both triple coproducts are bilinear in u, so the direct coassociativity
    test over a sweep reduces to one quadratic form per matrix entry.
    """
    k3 = ext.tensor_power(3).rank
    deltas = term_coproducts(ext, *ext.tensor_power(3).support(np.ones(k3, dtype=np.int64)))
    return coassoc_difference(ext, deltas, deltas)


def _symmetric_row(form: np.ndarray, i: int, n: int) -> np.ndarray:
    """The coefficients of x_i x_j, j >= i, in the quadratic map
    x -> sum_ab x_a x_b form[a, b], mod n: form[i, i], then form[i, j] + form[j, i]."""
    row = form[i, i:] + form[i:, i]
    row[0] = form[i, i]
    return row % n


def _coassoc_spans_cosickle(ext: Extension, coassoc: np.ndarray) -> bool:
    """Whether the coassociativity tensor G and the cosickle form F span the same
    quadratic maps, by two exact identities on their symmetric coefficients.

    G has one output per S^⊗4 coordinate and basis element β_c of S⊗S.
    Since Δ_u(s⊗t) = (s⊗1⊗t)·Δ_u(1⊗1), G at β_c is ι(β_c)·(G at 1⊗1),
    where ι = η₂∘η₂ sends s⊗t to s⊗1⊗1⊗t, and G at 1⊗1 is −F:
        G at β_c = −ι(β_c)·F,    G at 1⊗1 = −F.
    The first puts every output of G in the span of F's, the second F's in
    the span of G's, so the two forms have one zero set on all of S^⊗3.
    (The second follows from the first as ι(1⊗1) = 1; it is checked as the
    direct witness of span F ⊆ span G.)  The products by the ι(β_c) are one
    matrix, from one stacked `mulmat` of S^⊗4.  The coefficients are
    compared one i of x_i x_j at a time: no second array the size of G is
    formed, and each GEMM stays small (a (136 × 32)·(32 × 256) float64
    GEMM, all pairs of (F4⊗F4)/F4 at once, stalls for 16 ms in some
    processes under OpenBLAS's two threads).
    """
    n, form = ext.n, cosickle_form(ext)
    t2, t4 = ext.tensor_power(2).ring, ext.tensor_power(4).ring
    k4, k2 = t4.rank, t2.rank
    iota = (ext.face_map(3, 2).matrix @ ext.face_map(2, 2).matrix) % n  # column c is ι(β_c)
    # [j, (k, c)]: coordinate k of ι(β_c)·e_j, so F's outputs times it are G's at every β_c
    by_iota = t4.mulmat(iota.T).transpose(2, 1, 0).reshape(k4, k4 * k2)
    for i in range(len(form)):
        f, g = _symmetric_row(form, i, n), _symmetric_row(coassoc, i, n)
        at_one = g.reshape(len(g), k4, k2) @ t2.one  # k2 terms below n^2 each
        if ((g + zmod.matmul_mod(f, by_iota, n)) % n).any() or ((at_one + f) % n).any():
            return False
    return True


def _almost_invertible(ext: Extension, grid: Grid, cosickle: np.ndarray) -> np.ndarray:
    """Mask of the cosickles whose partial collapses u^1 u^2 ⊗ u^3 and
    u^1 ⊗ u^2 u^3 are both units of S^⊗2, over the flat grid.

    Only the cosickle rows are built (`Grid.rows_at`), one block at a time;
    each partial collapse is one `zmod.matmul_mod` by its merge matrix, and
    `zmod.batch_is_unit` tests it against the residue fields of S^⊗2.
    """
    residue = ext.tensor_power(2).ring.residue_fields
    merges = [ext.merge_map(3, first=first).matrix.T for first in (True, False)]
    idx = np.flatnonzero(cosickle)
    out = np.zeros(grid.size, dtype=bool)
    step = zmod.block_rows(grid.rank)
    for s in range(0, len(idx), step):
        block = idx[s : s + step]
        rows = grid.rows_at(block)
        both = np.ones(len(block), dtype=bool)
        for merge in merges:
            both &= zmod.batch_is_unit(zmod.matmul_mod(rows, merge, ext.n), residue)
        out[block[both]] = True
    return out


@dataclass
class CosickleClassification:
    """Census of S^⊗3 with the tag chain and its cross-checking oracles.

    The chain unit cocycle ⇒ almost invertible ⇒ cosickle ⇔ coassociative
    is checked on construction.  When classify_all has proved the two form
    identities, is_coassociative is the kept cosickle mask itself (so its
    equality is by proof); after the fallback sweep of the coassociativity
    tensor it is that sweep's own mask, and the chain check compares.
    """

    ext: Extension
    grid: Grid = field(repr=False)
    is_unit: np.ndarray = field(repr=False)
    is_cocycle: np.ndarray = field(repr=False)
    is_cosickle: np.ndarray = field(repr=False)
    is_almost_invertible: np.ndarray = field(repr=False)
    is_coassociative: np.ndarray = field(repr=False)
    counit_solvable: Optional[np.ndarray] = field(repr=False, default=None)
    condition: ClassVar[str] = COSICKLE_CONDITION

    def __post_init__(self):
        chain = (
            (~self.is_cocycle | self.is_almost_invertible).all()
            and (~self.is_almost_invertible | self.is_cosickle).all()
            and (self.is_cosickle == self.is_coassociative).all()
        )
        if not chain:
            raise InternalCheckError("tag implication chain violated in census")
        # counital twisted corings are exactly the almost invertible cosickles
        if self.counit_solvable is not None and (self.admits_counit != self.is_almost_invertible).any():
            raise InternalCheckError("counit oracle disagrees with almost invertibility in census")

    @cached_property
    def elements(self) -> np.ndarray:
        """Coefficient rows of every element of S^⊗3, lex order; built on first read."""
        return self.grid.rows()

    @property
    def admits_counit(self) -> Optional[np.ndarray]:
        """Coassociative and a counit exists (linear-solvability oracle)."""
        if self.counit_solvable is None:
            return None
        return self.is_coassociative & self.counit_solvable

    @property
    def counts(self) -> dict:
        out = {
            "elements": int(self.grid.size),
            "units": int(self.is_unit.sum()),
            "unit_cocycles": int(self.is_cocycle.sum()),
            "cosickles": int(self.is_cosickle.sum()),
            "almost_invertible": int(self.is_almost_invertible.sum()),
            "coassociative": int(self.is_coassociative.sum()),
        }
        if self.counit_solvable is not None:
            out["admits_counit"] = int(self.admits_counit.sum())
        return out


def classify_all(
    ext: Extension,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
    counit_oracle: Optional[bool] = None,
) -> CosickleClassification:
    """Sweep all of S^⊗3 and tag every element.

    The census reads the two masks of S^⊗3 that compute_h2 reads too: the
    unit mask kept on its ring (`FiniteRing.unit_mask`) and the cosickle
    zero set kept on the extension (`amitsur.cosickle_zeros`), each one
    `rings.Grid` sweep.  Nothing else is swept over the grid:
    - coassociative: the direct two-triple-coproduct tensor G is built as
      the independent second route, and two exact identities against the
      cosickle form F (`_coassoc_spans_cosickle`) prove that G and F have
      one zero set, which makes the cosickle mask the coassociative one.
      Should an identity fail, G is swept (`Grid.zero_mask`) and the chain
      check of the census decides.  The mask is kept, read-only, in the
      memo of ext: G is built and proved once per extension;
    - almost invertible: both partial collapses of the cosickle rows alone
      are tested against the residue fields of S^⊗2 (`_almost_invertible`).
    The counit-solvability oracle (`counit_solvable`: per block of the grid
    one GEMM, then one batched elimination per prime power of n) is on by
    default for sweeps of at most 4096 elements, and its verdict must equal
    almost invertibility.  The cap, the chain check and the oracle run on
    every call.  Rows are built only when `elements` is read.  `jobs`
    changes nothing.
    """
    t3 = ext.tensor_power(3)
    grid = Grid.of(t3.ring, cap)
    if counit_oracle is None:
        counit_oracle = grid.size <= 4096
    unit_mask = t3.ring.unit_mask(cap)
    cosickle = cosickle_zeros(ext, cap)

    def coassoc_zeros():
        form = _coassoc_difference_tensor(ext)
        if _coassoc_spans_cosickle(ext, form):
            return cosickle
        mask = grid.zero_mask(form)
        mask.flags.writeable = False
        return mask

    coassoc = ext._cached("coassoc_zeros", coassoc_zeros)
    almost = _almost_invertible(ext, grid, cosickle)
    cocycle = unit_mask & cosickle
    solvable = counit_solvable(ext, grid.rows()) if counit_oracle else None
    return CosickleClassification(
        ext, grid, unit_mask, cocycle, cosickle, almost, coassoc, solvable
    )


# -- quotient monoids -----------------------------------------------------------------


@dataclass
class MonoidQuotient:
    """Orbits of the coboundary group acting on a cosickle monoid."""

    ext: Extension
    which: str
    b2: np.ndarray = field(repr=False)
    representatives: np.ndarray = field(repr=False)
    orbit_sizes: list[int] = field(repr=False)
    invertible: np.ndarray = field(repr=False)  # per representative

    @property
    def counts(self) -> dict:
        return {
            "orbits": len(self.representatives),
            "invertible_orbits": int(self.invertible.sum()),
            "b2_order": len(self.b2),
        }


def monoid_quotient(
    ext: Extension, which: str = "full", cap: int = DEFAULT_CAP, jobs: int = 1
) -> MonoidQuotient:
    """Quotient of the (almost invertible) cosickle monoid by B^2.

    which = "full" takes all cosickles, "almost" the almost invertible ones.
    Orbit representatives are the lexicographically least members.  An
    orbit is invertible exactly when its members are units, since B^2 is a
    group of units.  Orbits are taken on lex keys (`Grid.keys`): per block
    of monoid rows, the keys of one `FiniteRing.products` against B^2,
    sorted along each row, so column 0 is the orbit's least member.  The
    1-d `np.unique` with return_index imports no numpy.ma.
    """
    if which not in ("full", "almost"):
        raise ValueError("which must be 'full' or 'almost'")
    census = classify_all(ext, cap=cap, jobs=jobs, counit_oracle=False)
    grid, t3 = census.grid, ext.tensor_power(3).ring
    monoid = np.flatnonzero(census.is_cosickle if which == "full" else census.is_almost_invertible)
    b2 = b2_rows(ext, cap=cap, jobs=jobs)
    minima = np.empty(len(monoid), dtype=np.int64)
    sizes = np.empty(len(monoid), dtype=np.int64)
    step = zmod.block_rows(len(b2) * grid.rank)
    for start in range(0, len(monoid), step):
        keys = grid.keys(t3.products(grid.rows_at(monoid[start : start + step]), b2))
        # not np.sort: its SIMD kernels would fault in about 0.25 MB of code pages more
        keys = np.take_along_axis(keys, np.argsort(keys, axis=1, kind="stable"), axis=1)
        minima[start : start + step] = keys[:, 0]
        sizes[start : start + step] = 1 + (keys[:, 1:] != keys[:, :-1]).sum(axis=1)
    reps, first = np.unique(minima, return_index=True)
    sizes = [int(k) for k in sizes[first]]
    return MonoidQuotient(ext, which, b2, grid.rows_at(reps), sizes, census.is_unit[reps])


# -- Brauer classes ------------------------------------------------------------------


class BrauerClass:
    """A cocycle class under coboundary equivalence, canonically represented.

    The representative is the lexicographically least normalized (norm 1)
    cocycle in the coset u·B^2.  H^2(S/R, U) = 1 over a finite base
    (README, "Mathematics"), so every unit cocycle lies in B^2 and its
    coset is B^2 itself: there is one class, the identity class, and
    products, inverses and is_identity name it by B^2 membership.
    """

    def __init__(self, ext: Extension, rep: tuple, cap: int = DEFAULT_CAP):
        self.ext = ext
        self.rep = rep
        self._cap = cap

    @classmethod
    def of_twist(cls, tw: TwistElement, cap: int = DEFAULT_CAP) -> "BrauerClass":
        """The class of the cocycle u: the lex-least norm-1 member of u·B^2.

        One route for every unit cocycle: read B^2 (so the cap refuses on
        every call), check u ∈ B^2 (a kept row of Z^2 = B^2 needs no
        comparison), and return the identity class (`_identity_rep`), as
        u·B^2 = B^2.  A cocycle outside B^2 raises InternalCheckError.
        """
        if not is_two_cocycle(tw):
            raise ValueError("Brauer classes are classes of unit 2-cocycles")
        ext = tw.ext
        b2 = b2_rows(ext, cap=cap)
        if not (tw.is_kept or (b2 == tw.u.coeffs).all(axis=1).any()):
            raise InternalCheckError("a unit 2-cocycle outside B^2, but H^2(S/R, U) = 1 over a finite base")
        return cls(ext, _identity_rep(ext, b2), cap=cap)

    def twist(self) -> TwistElement:
        return TwistElement(self.ext, np.array(self.rep, dtype=np.int64))

    def __mul__(self, other: "BrauerClass") -> "BrauerClass":
        if self.ext != other.ext:
            raise ValueError("classes over different extensions")
        t3 = self.ext.tensor_power(3).ring
        prod = t3.mul_vec(np.array(self.rep), np.array(other.rep))
        return BrauerClass.of_twist(TwistElement(self.ext, prod), cap=self._cap)

    def inverse(self) -> "BrauerClass":
        return BrauerClass.of_twist(self.twist().inverted(), cap=self._cap)

    def is_identity(self) -> bool:
        return self == BrauerClass.of_twist(unit_twist(self.ext), cap=self._cap)

    def __eq__(self, other):
        return isinstance(other, BrauerClass) and self.ext == other.ext and self.rep == other.rep

    def __hash__(self):
        return hash((self.ext, self.rep))

    def __repr__(self):
        return f"BrauerClass({list(self.rep)} over {self.ext.name})"


def _identity_rep(ext: Extension, b2: np.ndarray) -> tuple:
    """The representative of the identity class: the first row of B^2 (lex
    order) whose norm is 1, found once and kept in the memo of ext."""

    def build():
        normalized = ((b2 @ ext.collapse_map(3).matrix.T) % ext.n == ext.top.one).all(axis=1)
        if not normalized.any():
            raise InternalCheckError("B^2 contains no normalized cocycle")
        return tuple(map(int, b2[np.argmax(normalized)]))

    return ext._cached("identity_class", build)


def brauer_class(c: NormalBasisCoring, cap: int = DEFAULT_CAP) -> BrauerClass:
    """The class of an Azumaya normal-basis coring: its twist's cocycle class."""
    if not is_azumaya(c):
        raise ValueError("Brauer classes are classes of Azumaya corings")
    return BrauerClass.of_twist(c.twist, cap=cap)


# -- comparison after refinement -------------------------------------------------------


@dataclass
class RefinementComparison:
    equivalent: bool
    refined_ext: Extension
    left_twist: np.ndarray = field(repr=False)
    right_twist: np.ndarray = field(repr=False)
    witness: Optional[np.ndarray] = field(repr=False, default=None)


def compare_via_refinement(
    c: NormalBasisCoring, d: NormalBasisCoring, cap: int = DEFAULT_CAP
) -> RefinementComparison:
    """Brauer-compare Azumaya corings over S/R and T/R on the refinement S⊗T.

    Both are refined by external product with the other side's canonical
    coring (twists interleave with 1), and the twists are tested for
    cohomologousness over (S⊗T)/R: witness 1⊗1 if equal, else the lex-least.
    """
    if not (is_azumaya(c) and is_azumaya(d)):
        raise ValueError("refinement comparison is for Azumaya corings")
    if c.ext.base != d.ext.base:
        raise ValueError("corings over different base rings")
    left = external_product(c, canonical_coring(d.ext))
    right = external_product(canonical_coring(c.ext), d)
    if left.ext != right.ext:  # pragma: no cover - same construction on both sides
        raise InternalCheckError("refinement produced mismatched extensions")
    w = _witness_search(left.ext, left.twist.u.coeffs, right.twist.u.coeffs, cap)
    return RefinementComparison(
        w is not None, left.ext, left.twist.u.coeffs, right.twist.u.coeffs, w
    )
