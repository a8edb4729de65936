"""Normal-basis corings: S⊗S with a twisted comultiplication.

For u = u^1⊗u^2⊗u^3 in S^⊗3 the twisted comultiplication on the S-bimodule
S⊗S is

    Delta_u(s ⊗ t) = u^1 s ⊗ u^2 ⊗ u^3 t      in  S⊗S⊗S ≅ (S⊗S) ⊗_S (S⊗S),

with counit eps(s ⊗ t) = |u|^{-1} s t whenever the norm makes sense.  The
canonical (Sweedler) coring is the twist u = 1.  Coassociativity of Delta_u
is equivalent to the element identity u_1 u_3 = u_2 u_4 in S^⊗4, and both
routes are computed here and required to agree.  The linear map associated
to Delta_u under the hom-tensor adjunction is multiplication by u on S^⊗3;
the coring is Azumaya exactly when it is coassociative and that map is
bijective, i.e. when u is a unit 2-cocycle.  A coring keeps its maps and verdicts.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from . import zmod
from .amitsur import COSICKLE_CONDITION, TwistElement, _witness_search, unit_twist
from .extensions import Extension, external_extension, interleave, rebase_extension, rebase_pushforward
from .rings import DEFAULT_CAP, InternalCheckError, RingHom


class NormalBasisCoring:
    """S⊗S carrying the comultiplication twisted by an element of S^⊗3.

    The twist need not be invertible; the counit exists exactly when the
    twist is an almost invertible 2-cosickle.  The structure maps and the
    verdicts on them are built on first use and kept on the coring.
    """

    def __init__(self, ext: Extension, tw: TwistElement):
        if tw.ext != ext:
            raise ValueError("twist does not live over this extension")
        self.ext = ext
        self.twist = tw

    # -- structure maps ---------------------------------------------------------

    @cached_property
    def comultiplication(self) -> np.ndarray:
        """Matrix of Delta_u: S⊗S -> S^⊗3, the sum of the coproducts of the terms of u."""
        support = self.ext.tensor_power(3).support(self.twist.u.coeffs)
        return term_coproducts(self.ext, *support).sum(axis=0) % self.ext.n

    @cached_property
    def counit(self) -> Optional[np.ndarray]:
        """Matrix of eps: S⊗S -> S, present iff the twist admits a counit."""
        if not self.twist.is_almost_invertible:
            return None
        nrm_inv = self.twist.norm_inverse
        if nrm_inv is None:  # pragma: no cover - almost invertible implies unit norm
            raise InternalCheckError("almost invertible twist with singular norm")
        return (self.ext.top.mulmat(nrm_inv.coeffs) @ self.ext.collapse_map(2).matrix) % self.ext.n

    # -- verdicts ---------------------------------------------------------------

    @cached_property
    def is_coassociative(self) -> bool:
        """Coassociativity two independent ways, required to agree: the two triple
        coproducts as matrices S⊗S -> S^⊗4, and u_1 u_3 = u_2 u_4 in S^⊗4.
        """
        dm = self.comultiplication[None]
        direct = not coassoc_difference(self.ext, dm, dm).any()
        if direct != self.twist.is_cosickle:  # pragma: no cover - defensive
            raise InternalCheckError("triple-coproduct test disagrees with u_1 u_3 = u_2 u_4")
        return direct

    @cached_property
    def is_tilde_delta_bijective(self) -> bool:
        return zmod.is_invertible(tilde_delta(self), self.ext.n)

    def __eq__(self, other):
        return (
            isinstance(other, NormalBasisCoring)
            and self.ext == other.ext
            and self.twist.u == other.twist.u
        )

    def __repr__(self):
        return f"NormalBasisCoring(twist={list(map(int, self.twist.u.coeffs))}, over {self.ext.name})"


def canonical_coring(ext: Extension) -> NormalBasisCoring:
    """Sweedler's canonical coring: twist 1, Delta(s⊗t) = s⊗1⊗t, eps(s⊗t) = st."""
    return NormalBasisCoring(ext, unit_twist(ext))


def twisted_coring(ext: Extension, tw) -> NormalBasisCoring:
    if not isinstance(tw, TwistElement):
        tw = TwistElement(ext, tw)
    return NormalBasisCoring(ext, tw)


# -- axiom checks ------------------------------------------------------------------


def term_coproducts(ext: Extension, slots: np.ndarray, scalars: np.ndarray) -> np.ndarray:
    """Delta_e: S⊗S -> S^⊗3 for each pure twist e = r (b_k1 ⊗ b_k2 ⊗ b_k3).

    slots and scalars are as from TensorPowerRing.support; returns shape
    (terms, rank S^⊗3, rank S⊗S).  Column e_rho (b_i ⊗ b_j) goes to
    r e_rho (b_k1 b_i ⊗ b_k2 ⊗ b_k3 b_j), read off the R-valued
    multiplication of S; Delta_u is linear in u.
    """
    d, kr = ext.degree, ext.base.rank
    rmult = ext.rmult()
    mul = ext.base.mul_einsum
    first = mul("T_p,TiA_->TpiA_", ext.base.mulmat(scalars), rmult[slots[:, 0]])
    val = mul("TpiA_,TjB_->TAB_ijp", first, rmult[slots[:, 2]])
    out = np.zeros((len(slots), d, d, d, kr, d, d, kr), dtype=np.int64)
    out[np.arange(len(slots)), :, slots[:, 1]] = val
    return out.reshape(len(slots), d**3 * kr, d**2 * kr)


def coassoc_difference(ext: Extension, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(Delta_l ⊗ id) Delta_r - (id ⊗ Delta_l) Delta_r for stacks of comultiplication matrices.

    left (I, k3, k2) and right (J, k3, k2), entries reduced, give shape
    (I, J, k4 * k2), reduced mod n.  Delta_l applied to the first two slots
    of Delta_r, and to the last two, is one exact `zmod.matmul_mod` each:
    the rows of Delta_l, [a, b, c, t] <- (b_x ⊗ b_y, e_r), against Delta_r
    with the two slots and the base coordinate it contracts as rows.
    """
    d, kr = ext.degree, ext.base.rank
    nl, nr = len(left), len(right)
    rows = left.reshape(nl * d**3 * kr, d * d * kr)
    dr = right.reshape(nr, d, d, d, kr, -1)  # [j, x, y, z, r, C]
    cols = dr.shape[-1]
    first = zmod.matmul_mod(rows, dr.transpose(1, 2, 4, 0, 3, 5).reshape(d * d * kr, -1), ext.n)
    last = zmod.matmul_mod(rows, dr.transpose(2, 3, 4, 0, 1, 5).reshape(d * d * kr, -1), ext.n)
    first = first.reshape(nl, d, d, d, kr, nr, d, cols).transpose(0, 5, 1, 2, 3, 6, 4, 7)  # [i, j, a, b, c, z, t, C]
    last = last.reshape(nl, d, d, d, kr, nr, d, cols).transpose(0, 5, 6, 1, 2, 3, 4, 7)  # [i, j, x, a, b, c, t, C]
    return zmod._mod(first - last, ext.n).reshape(nl, nr, -1)


def check_coassociative(c: NormalBasisCoring) -> bool:
    """Coassociativity by both routes (`NormalBasisCoring.is_coassociative`)."""
    return c.is_coassociative


def _counit_slot_maps(c: NormalBasisCoring) -> tuple[np.ndarray, np.ndarray]:
    """(eps ⊗ id) and (id ⊗ eps): S^⊗3 -> S⊗S, x⊗y⊗z -> eps(x⊗y) ⊗ z and x ⊗ eps(y⊗z)."""
    ext = c.ext
    d, kr = ext.degree, ext.base.rank
    # e[a, tau, i, j, rho]: eps(e_rho (b_i ⊗ b_j)) has R-coordinate e_tau at b_a
    e = ((ext._phi_inv @ c.counit) % ext.n).reshape(d, kr, d, d, kr)
    eye = np.eye(d, dtype=np.int64)
    k2, k3 = d * d * kr, d**3 * kr
    eps_id = np.einsum("atijr,lL->altijLr", e, eye).reshape(k2, k3)
    id_eps = np.einsum("atjlr,iI->iatIjlr", e, eye).reshape(k2, k3)
    return eps_id, id_eps


def check_counit(c: NormalBasisCoring) -> bool:
    """Both counit laws on the full basis; False when no counit exists."""
    ok, _ = counit_report(c)
    return ok


def counit_report(c: NormalBasisCoring) -> tuple[bool, str]:
    if c.counit is None:
        return False, "no counit: twist is not an almost invertible 2-cosickle"
    n = c.ext.n
    dm = c.comultiplication
    ident = np.eye(c.ext.tensor_power(2).rank, dtype=np.int64)
    eps_id, id_eps = _counit_slot_maps(c)
    left = (eps_id @ dm) % n
    right = (id_eps @ dm) % n
    if (left == ident).all() and (right == ident).all():
        return True, "counit laws hold"
    return False, "counit laws fail"  # pragma: no cover - cannot happen for attached counits


def tilde_delta(c: NormalBasisCoring) -> np.ndarray:
    """The S^⊗3-linear map attached to Delta_u: multiplication by u on S^⊗3."""
    t3 = c.ext.tensor_power(3).ring
    return t3.mulmat(c.twist.u.coeffs)


def is_azumaya(c: NormalBasisCoring) -> bool:
    """Coassociative with bijective tilde-Delta; equals 'unit 2-cocycle twist'.

    Both verdicts are kept on the coring, so both coassociativity routes and
    the invertibility test run at most once per coring.
    """
    return c.is_coassociative and c.is_tilde_delta_bijective


def coring_axiom_report(c: NormalBasisCoring) -> dict:
    """All axiom verdicts for one coring, as plain data."""
    tw = c.twist
    counit_ok, counit_why = counit_report(c)
    return {
        "cosickle_condition": COSICKLE_CONDITION,
        "unit": tw.is_unit,
        "two_cocycle": tw.is_cocycle,
        "cosickle": tw.is_cosickle,
        "almost_invertible": tw.is_almost_invertible,
        "coassociative": c.is_coassociative,
        "counit_exists": c.counit is not None,
        "counit_laws": counit_ok,
        "counit_note": counit_why,
        "tilde_delta_bijective": c.is_tilde_delta_bijective,
        "azumaya": is_azumaya(c),
        "norm": [int(v) for v in tw.norm.coeffs],
    }


# -- constructions ------------------------------------------------------------------


def coring_tensor(c: NormalBasisCoring, d: NormalBasisCoring) -> NormalBasisCoring:
    """Product over S^⊗2: twists multiply; the canonical coring is the unit."""
    if c.ext != d.ext:
        raise ValueError("corings over different extensions")
    t3 = c.ext.tensor_power(3).ring
    prod = t3.mul_vec(c.twist.u.coeffs, d.twist.u.coeffs)
    return NormalBasisCoring(c.ext, TwistElement(c.ext, prod))


def dual_coring(c: NormalBasisCoring) -> NormalBasisCoring:
    """The inverse twist; tensoring with it lands on the canonical coring."""
    if not c.twist.is_unit:
        raise ValueError("dual coring requires a unit twist")
    return NormalBasisCoring(c.ext, c.twist.inverted())


def base_change(c: NormalBasisCoring, t_ring, rho: RingHom) -> NormalBasisCoring:
    """The coring over (S⊗T)/T obtained by applying -⊗T to the twist."""
    ext = c.ext
    reb = rebase_extension(ext, t_ring, rho)
    push = rebase_pushforward(ext, rho, 3)
    new_twist = (push @ c.twist.u.coeffs) % ext.n
    return NormalBasisCoring(reb, TwistElement(reb, new_twist))


def external_product(c: NormalBasisCoring, d: NormalBasisCoring) -> NormalBasisCoring:
    """The coring over (S⊗T)/R with slotwise-interleaved twist."""
    if c.ext.base != d.ext.base:
        raise ValueError("external products need a common base ring")
    big = external_extension(c.ext, d.ext)
    w = interleave(c.ext, d.ext, big, 3, c.twist.u.coeffs, d.twist.u.coeffs)
    out = NormalBasisCoring(big, TwistElement(big, w))
    if is_azumaya(c) and is_azumaya(d) and not is_azumaya(out):  # pragma: no cover
        raise InternalCheckError("external product of Azumaya corings is not Azumaya")
    return out


def iso_test(
    c: NormalBasisCoring, d: NormalBasisCoring, cap: int = DEFAULT_CAP
) -> Optional[np.ndarray]:
    """A unit w of S^⊗2 with u v^{-1} = delta_1(w), when the corings are
    isomorphic via multiplication by w; None otherwise.

    A returned witness is verified to intertwine the two comultiplications:
    Delta_u ∘ mu_w = mu_{w_1 w_3} ∘ Delta_v.
    """
    if c.ext != d.ext:
        raise ValueError("corings over different extensions")
    ext = c.ext
    if not d.twist.is_unit:
        raise ValueError("iso_test requires a unit twist on the second coring")
    w = _witness_search(ext, c.twist.u.coeffs, d.twist.u.coeffs, cap)
    if w is None:
        return None
    t2 = ext.tensor_power(2).ring
    t3 = ext.tensor_power(3).ring
    lhs = (c.comultiplication @ t2.mulmat(w)) % ext.n
    w13 = t3.mul_vec(
        ext.face_map(2, 1).apply_vec(w), ext.face_map(2, 3).apply_vec(w)
    )
    rhs = (t3.mulmat(w13) @ d.comultiplication) % ext.n
    if (lhs != rhs).any():  # pragma: no cover - defensive
        raise InternalCheckError("witness from search fails to intertwine comultiplications")
    return w


def recover_twist(c: NormalBasisCoring) -> TwistElement:
    """Delta(1⊗1), read off the comultiplication matrix.

    Recovers the twist of any normal-basis coring; inverse to twisting.
    """
    one2 = c.ext.tensor_power(2).one_vec()
    u = (c.comultiplication @ one2) % c.ext.n
    return TwistElement(c.ext, u)
