"""Amitsur-complex maps as contractions, against the loop builders they replaced.

The reference functions below build each map one basis element at a time
on the (slot..., rho) layout, decoding flat indices with numpy: the face
maps by a loop over (a, rho, tau), the merges and the collapse map by a loop
over every basis element of S^⊗m, the counit-slot maps the same way, the
interleaving by one hard-coded einsum per level, and rmulmat and embed_pure
by loops over the basis and the slots.  Every contraction must equal them
exactly, on every level up to 4 and every slot.

The fixtures are presented on their native bases, where the coordinate
map phi of level 1 is the identity; each is also checked on a skewed basis
so that a missing or misplaced phi shows.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corings.amitsur import compute_h2, delta1
from corings.coring import _counit_slot_maps, canonical_coring, twisted_coring
from corings.extensions import amitsur_rebase, external_extension, interleave
from corings.rings import RingHom, make_quotient_ring, try_invert, zmod_ring
from tests.conftest import desk_extensions, random_extension, simple_extension, skewed

LEVELS = (1, 2, 3, 4)


# -- reference routes -------------------------------------------------------------


def ref_face_map(ext, m, i):
    d, kr, n = ext.degree, ext.base.rank, ext.n
    c_r = ext.base.struct.astype(np.int64)
    e = np.einsum("as,rst->rat", ext.r_coords(ext.top.one), c_r) % n
    pre, post = d ** (i - 1), d ** (m - i + 1)
    mat = np.zeros((kr * d ** (m + 1), kr * d**m), dtype=np.int64)
    view = mat.reshape(pre, d, post, kr, pre, post, kr)
    idx, jdx = np.arange(pre)[:, None], np.arange(post)[None, :]
    for a in range(d):
        for rho in range(kr):
            for tau in range(kr):
                if e[rho, a, tau]:
                    view[idx, a, jdx, tau, idx, jdx, rho] = e[rho, a, tau]
    return (mat @ ext._phi_inv) % n if m == 1 else mat


def ref_merge_map(ext, m, first):
    d, kr, n = ext.degree, ext.base.rank, ext.n
    rmult = ext.rmult()
    c_r = ext.base.struct.astype(np.int64)
    cols = np.zeros((kr * d ** (m - 1), kr * d**m), dtype=np.int64)
    for flat in range(cols.shape[1]):
        *slots, rho = map(int, np.unravel_index(flat, (d,) * m + (kr,)))
        if first:
            prod_rc, rest, pos = rmult[slots[0], slots[1]], slots[2:], 0
        else:
            prod_rc, rest, pos = rmult[slots[-2], slots[-1]], slots[:-2], m - 2
        for a in range(d):
            coeff = (prod_rc[a] @ c_r[rho]) % n
            start = np.ravel_multi_index(tuple(rest[:pos] + [a] + rest[pos:]) + (0,), (d,) * (m - 1) + (kr,))
            cols[start : start + kr, flat] = (cols[start : start + kr, flat] + coeff) % n
    return (ext._phi @ cols) % n if m == 2 else cols


def ref_collapse_map(ext, m):
    if m == 1:
        return np.eye(ext.top.rank, dtype=np.int64)
    d, kr = ext.degree, ext.base.rank
    cols = np.zeros((ext.top.rank, kr * d**m), dtype=np.int64)
    for flat in range(cols.shape[1]):
        *slots, rho = np.unravel_index(flat, (d,) * m + (kr,))
        acc = ext.eta.matrix[:, rho]
        for s in slots:
            acc = ext.top.mul_vec(acc, ext.basis[s])
        cols[:, flat] = acc
    return cols


def ref_counit_slot_maps(c):
    ext = c.ext
    d, kr = ext.degree, ext.base.rank
    eps = c.counit
    left = np.zeros((d, d, kr, d**3 * kr), dtype=np.int64)
    right = np.zeros_like(left)
    for src in range(d**3 * kr):
        i, j, l, rho = np.unravel_index(src, (d, d, d, kr))
        left[:, l, :, src] = ext.r_coords(eps[:, np.ravel_multi_index((i, j, rho), (d, d, kr))])
        right[i, :, :, src] = ext.r_coords(eps[:, np.ravel_multi_index((j, l, rho), (d, d, kr))])
    return left.reshape(d * d * kr, -1), right.reshape(d * d * kr, -1)


def ref_interleave(ext_s, ext_t, ext_st, m, u, v):
    n, kr = ext_s.n, ext_s.base.rank
    ds, dt = ext_s.degree, ext_t.degree
    uu = (u if m > 1 else (ext_s._phi_inv @ u) % n).reshape((ds,) * m + (kr,)).astype(np.int64)
    vv = (v if m > 1 else (ext_t._phi_inv @ v) % n).reshape((dt,) * m + (kr,)).astype(np.int64)
    c_r = ext_s.base.struct.astype(np.int64)
    if m == 3:
        out = np.einsum("abcr,xyzs,rst->axbyczt", uu, vv, c_r) % n
    elif m == 2:
        out = np.einsum("abr,xys,rst->axbyt", uu, vv, c_r) % n
    else:
        out = np.einsum("ar,xs,rst->axt", uu, vv, c_r) % n
    flat = out.reshape(-1)
    return (ext_st._phi @ flat) % n if m == 1 else flat


def ref_rmulmat(ext, vec):
    d = ext.degree
    out = np.zeros((d, d, ext.base.rank), dtype=np.int64)
    for j in range(d):
        out[:, j, :] = ext.r_coords(ext.top.mul_vec(vec, ext.basis[j]))
    return out


def ref_embed_pure(ext, factors):
    if len(factors) == 1:
        return np.asarray(factors[0], dtype=np.int64) % ext.n
    c_r = ext.base.struct.astype(np.int64)
    acc = ext.r_coords(factors[0])
    for f in factors[1:]:
        acc = np.einsum("Ir,is,rst->Iit", acc, ext.r_coords(f), c_r).reshape(-1, ext.base.rank) % ext.n
    return acc.reshape(-1)


# -- comparisons --------------------------------------------------------------------


def check_maps(ext, rng, levels=LEVELS):
    """Faces, merges, collapses, rmulmat and embed_pure on every level and slot."""
    top = levels[-1]
    for m in levels:
        if m < top:
            for i in range(1, m + 2):
                assert (ext.face_map(m, i).matrix == ref_face_map(ext, m, i)).all(), (ext, m, i)
        if m >= 2:
            for first in (True, False):
                assert (ext.merge_map(m, first).matrix == ref_merge_map(ext, m, first)).all(), (ext, m, first)
        assert (ext.collapse_map(m).matrix == ref_collapse_map(ext, m)).all(), (ext, m)
        factors = list(rng.integers(0, ext.n, (m, ext.top.rank)))
        assert (ext.tensor_power(m).embed_pure(factors) == ref_embed_pure(ext, factors)).all()
        assert (ext.tensor_power(m).one_vec() == ref_embed_pure(ext, [ext.top.one] * m)).all()
    for vec in list(ext.basis) + list(rng.integers(0, ext.n, (3, ext.top.rank))):
        assert (ext.rmulmat(vec) == ref_rmulmat(ext, vec)).all()


def check_counit_maps(c):
    assert c.counit is not None
    for new, ref in zip(_counit_slot_maps(c), ref_counit_slot_maps(c)):
        assert (new == ref).all(), c


def check_interleave(ext_s, ext_t, rng):
    big = external_extension(ext_s, ext_t)
    for m in (1, 2, 3):
        u = rng.integers(0, ext_s.n, ext_s.tensor_power(m).rank)
        v = rng.integers(0, ext_t.n, ext_t.tensor_power(m).rank)
        assert (interleave(ext_s, ext_t, big, m, u, v) == ref_interleave(ext_s, ext_t, big, m, u, v)).all()


def refined_extension():
    f2 = zmod_ring(2)
    f4 = simple_extension(f2, make_quotient_ring(2, [1, 1, 1]))
    f2x2 = simple_extension(f2, make_quotient_ring(2, [0, 1, 1]))
    return f4, f2x2, external_extension(f4, f2x2)


def check_extension(ext, rng, twists):
    check_maps(ext, rng)
    check_interleave(ext, ext, rng)
    check_counit_maps(canonical_coring(ext))
    for u in twists:
        check_counit_maps(twisted_coring(ext, u))


def coboundary_twists(ext, rng, tries=20):
    """[delta_1(w)] for the first unit w of S⊗S among a few random draws, or []."""
    t2 = ext.tensor_power(2)
    for w in rng.integers(0, ext.n, (tries, t2.rank)):
        if try_invert(t2.element(w)) is not None:
            return [delta1(ext, w)]
    return []


def test_maps_match_loops_on_desk_extensions(request):
    """The desk fixtures and (F4⊗F4)/F4, on native and skewed bases: every
    map, and the counit-slot maps of every Z² cocycle."""
    rng = np.random.default_rng(11)
    for plain in desk_extensions(request):
        for ext in (plain, skewed(plain, rng)):
            assert (ext._phi != np.eye(ext.top.rank)).any() == (ext is not plain)
            check_extension(ext, rng, compute_h2(ext).z2)


def test_maps_match_loops_over_an_asymmetric_base(gr42_over_z4):
    """(GR⊗GR)/GR with GR = GR(4,2): its structure constants c[r, p, t] are
    not symmetric in r and t, so a transposed base multiplication shows."""
    rng = np.random.default_rng(13)
    plain = amitsur_rebase(gr42_over_z4)
    for ext in (plain, skewed(plain, rng)):
        twists = coboundary_twists(ext, rng)
        assert twists
        check_extension(ext, rng, twists)


def test_maps_match_loops_on_refined_extension():
    """(F4⊗(F2×F2))/F2 up to S^⊗4 (rank 256), and the interleaving of its two factors."""
    f4, f2x2, refined = refined_extension()
    rng = np.random.default_rng(12)
    check_maps(refined, rng)
    check_maps(skewed(refined, rng), rng)
    check_interleave(f4, f2x2, rng)
    check_interleave(skewed(f4, rng), skewed(f2x2, rng), rng)
    check_counit_maps(canonical_coring(refined))


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([4, 6, 9, 12]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(2, 3).flatmap(
                lambda d: st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(lambda c: c + [1])
            ),
            st.booleans(),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_maps_match_loops_on_random_extensions(case):
    """Hypothesis extensions over n in {4, 6, 9, 12}, plain and rebased, on skewed bases."""
    n, poly, rebased, seed = case
    try:
        ext = random_extension(n, poly, rebased)
    except ValueError:
        assume(False)
    rng = np.random.default_rng(seed)
    ext = skewed(ext, rng)
    check_maps(ext, rng, LEVELS if ext.base.rank * ext.degree**4 <= 600 else LEVELS[:3])
    check_interleave(ext, ext, rng)
    check_counit_maps(canonical_coring(ext))
    for u in coboundary_twists(ext, rng):
        check_counit_maps(twisted_coring(ext, u))


def test_interleave_refuses_other_levels(f4_over_f2):
    t4 = f4_over_f2.tensor_power(4)
    u = np.zeros(t4.rank, dtype=np.int64)
    with pytest.raises(ValueError, match="levels 1..3"):
        interleave(f4_over_f2, f4_over_f2, external_extension(f4_over_f2, f4_over_f2), 4, u, u)


def test_every_built_map_goes_through_validate(monkeypatch):
    """Face, merge and collapse maps and the eta of a tensor extension are
    built with the default check, so RingHom.validate sees each of them: the
    unit law always, multiplicativity up to source rank × target rank 10^4.
    The external (F4⊗F4)/F2 has S^⊗4 of rank 256, past every former
    per-builder threshold."""
    validated = []
    honest = RingHom.validate

    def spy(hom):
        validated.append(hom)
        honest(hom)

    monkeypatch.setattr(RingHom, "validate", spy)
    f2 = zmod_ring(2)
    ext = simple_extension(f2, make_quotient_ring(2, [1, 1, 1]))
    big = external_extension(ext, ext)
    rebased = amitsur_rebase(ext)
    assert big.tensor_power(4).rank == 256
    maps = [big.eta, rebased.eta, big.face_map(3, 1), big.merge_map(4, first=False)]
    for e in (ext, rebased):
        maps += [e.face_map(m, i) for m in (1, 2, 3) for i in range(1, m + 2)]
        maps += [e.merge_map(m, first) for m in (2, 3, 4) for first in (True, False)]
        maps += [e.collapse_map(m) for m in (1, 2, 3)]
    assert all(any(hom is seen for seen in validated) for hom in maps)
