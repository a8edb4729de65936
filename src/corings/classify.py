"""Cosickle census, monoid quotients, Brauer classes and refinement compare.

A 2-cosickle is any u in S^⊗3 (invertible or not) with u_1 u_3 = u_2 u_4;
it is almost invertible when the partial collapses u^1 u^2 ⊗ u^3 and
u^1 ⊗ u^2 u^3 are units of S^⊗2.  Sweeping all of S^⊗3 yields the chain

    unit 2-cocycles  ⊂  almost invertible cosickles  ⊂  cosickles,

which under twisting matches Azumaya corings ⊂ counital corings ⊂
coassociative comultiplications with normal basis.  Dividing the two
cosickle monoids by the coboundary group B^2 gives the monoids whose
invertible parts recover H^2.  Brauer classes of Azumaya normal-basis
corings are cocycle classes; corings over different extensions of the same
base are compared after refining both to S⊗T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Optional

import numpy as np

from . import zmod
from .amitsur import (
    COSICKLE_CONDITION, TwistElement, _witness_search, b2_rows, cosickle_form, is_two_cocycle, sorted_cosets, unit_twist
)
from .coring import NormalBasisCoring, coassoc_difference, external_product, is_azumaya, term_coproducts
from .extensions import Extension
from .rings import DEFAULT_CAP, Grid, InternalCheckError


def is_cosickle(ext: Extension, u) -> bool:
    """The S^⊗4 identity u_1 u_3 = u_2 u_4; u need not be a unit."""
    return TwistElement(ext, np.asarray(u, dtype=np.int64) % ext.n).is_cosickle


def is_almost_invertible(ext: Extension, u) -> bool:
    """Cosickle with both partial collapses invertible in S^⊗2."""
    return TwistElement(ext, np.asarray(u, dtype=np.int64) % ext.n).is_almost_invertible


def counit_solution(ext: Extension, u) -> Optional[np.ndarray]:
    """An element v of S with u^1 v u^2 ⊗ u^3 = 1⊗1 = u^1 ⊗ u^2 v u^3, or None.

    This is the existence of a counit for the twisted comultiplication,
    decided as a linear system over Z/nZ; it is independent of the
    partial-collapse invertibility route.
    """
    u = np.asarray(u, dtype=np.int64) % ext.n
    t2 = ext.tensor_power(2)
    p = ext.merge_map(3, first=True).apply_vec(u)
    q = ext.merge_map(3, first=False).apply_vec(u)
    e1 = ext.slot_embed(2, 1).matrix
    e2 = ext.slot_embed(2, 2).matrix
    sys_mat = np.vstack(
        [
            (t2.ring.mulmat(p) @ e1) % ext.n,
            (t2.ring.mulmat(q) @ e2) % ext.n,
        ]
    )
    rhs = np.concatenate([t2.one_vec(), t2.one_vec()])
    return zmod.solve_right(sys_mat, rhs, ext.n)


def counit_solvable(ext: Extension, rows: np.ndarray) -> np.ndarray:
    """Whether `counit_solution(ext, u)` finds a v, for every row u of a batch.

    The system matrix A(u) = [mulmat(μ₁u)·e₁ ; mulmat(μ₂u)·e₂] of
    `counit_solution` is linear in u: column s of its upper block is the
    product μ₁(u)·e₁(b_s) in S^⊗2.  So one `products` per half builds the
    tensor T (r₃, 2 r₂, rank S) with A(u) = Σ_t u_t T[t], and the systems of
    a block of rows are one `zmod.matmul_mod` against T, solved against
    (1⊗1, 1⊗1) by one `zmod.solvable_right_batch`.
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


@dataclass
class CosickleClassification:
    """Census of S^⊗3 with the tag chain and its cross-checking oracles."""

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
        if not chain:  # pragma: no cover - the implication chain is definitional
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

    The sweep is one `rings.Grid` over S^⊗3: the unit mask and both partial-
    collapse masks are residue-field tests on half images, the cosickle and
    coassociativity tags are zero sets of quadratic forms.  The
    coassociativity tag is computed by the direct two-triple-coproduct test
    (via its bilinear tensor), independently of the cosickle identity; the
    two must agree.  The counit-solvability oracle (`counit_solvable`, one
    GEMM and one batched Howell elimination per block of the grid) is enabled
    automatically for sweeps of at most 4096 elements, and its verdict must
    equal almost invertibility.  The census builds its rows only when
    `elements` is read.  `jobs` changes nothing.
    """
    t2 = ext.tensor_power(2)
    t3 = ext.tensor_power(3)
    grid = Grid.of(t3.ring, cap)
    if counit_oracle is None:
        counit_oracle = grid.size <= 4096
    unit_mask = grid.unit_mask(t3.ring.residue_fields)
    cosickle = grid.zero_mask(cosickle_form(ext))
    coassoc = grid.zero_mask(_coassoc_difference_tensor(ext))
    # almost invertible: both partial collapses are units of S^⊗2
    residue2 = t2.ring.residue_fields
    both_units = grid.unit_mask(residue2, via=ext.merge_map(3, first=True).matrix.T)
    both_units &= grid.unit_mask(residue2, via=ext.merge_map(3, first=False).matrix.T)
    almost = cosickle & both_units
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
    group of units.
    """
    if which not in ("full", "almost"):
        raise ValueError("which must be 'full' or 'almost'")
    census = classify_all(ext, cap=cap, jobs=jobs, counit_oracle=False)
    mask = census.is_cosickle if which == "full" else census.is_almost_invertible
    b2 = b2_rows(ext, cap=cap, jobs=jobs)
    minima, sizes = [], []
    for orbits in sorted_cosets(ext, census.grid.rows(mask), b2):
        minima.append(orbits[:, 0])
        sizes.append(1 + (orbits[:, 1:] != orbits[:, :-1]).any(axis=2).sum(axis=1))
    reps, first = zmod.unique_rows(np.concatenate(minima), return_index=True)
    return MonoidQuotient(
        ext,
        which,
        b2,
        reps,
        [int(k) for k in np.concatenate(sizes)[first]],
        census.is_unit[mask][first],
    )


# -- Brauer classes ------------------------------------------------------------------


class BrauerClass:
    """A cocycle class under coboundary equivalence, canonically represented.

    The representative is the lexicographically least normalized (norm 1)
    cocycle in the coset; products multiply twists and inverses invert them.
    """

    def __init__(self, ext: Extension, rep: tuple, cap: int = DEFAULT_CAP):
        self.ext = ext
        self.rep = rep
        self._cap = cap

    @classmethod
    def of_twist(cls, tw: TwistElement, cap: int = DEFAULT_CAP) -> "BrauerClass":
        if not is_two_cocycle(tw):
            raise ValueError("Brauer classes are classes of unit 2-cocycles")
        ext = tw.ext
        coset = ext.tensor_power(3).ring.products(tw.u.coeffs[None, :], b2_rows(ext, cap=cap))[0]
        norms = (coset @ ext.collapse_map(3).matrix.T) % ext.n
        normalized = coset[(norms == ext.top.one).all(axis=1)]
        if not len(normalized):  # pragma: no cover - every coset has norm-1 members
            raise InternalCheckError("coset contains no normalized cocycle")
        return cls(ext, tuple(map(int, zmod.unique_rows(normalized)[0])), cap=cap)

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

    Both corings are refined by external product with the canonical coring
    of the other side's algebra (the twists interleave with 1), and the
    refined twists are tested for cohomologousness over (S⊗T)/R.
    """
    if not (is_azumaya(c) and is_azumaya(d)):
        raise ValueError("refinement comparison is for Azumaya corings")
    if c.ext.base != d.ext.base:
        raise ValueError("corings over different base rings")
    from .coring import canonical_coring

    left = external_product(c, canonical_coring(d.ext))
    right = external_product(canonical_coring(c.ext), d)
    if left.ext != right.ext:  # pragma: no cover - same construction on both sides
        raise InternalCheckError("refinement produced mismatched extensions")
    w = _witness_search(left.ext, left.twist.u.coeffs, right.twist.u.coeffs, cap)
    return RefinementComparison(
        w is not None, left.ext, left.twist.u.coeffs, right.twist.u.coeffs, w
    )
