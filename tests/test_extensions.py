"""Tensor powers, face/collapse maps, simplicial identities, rebasing."""

import itertools

import numpy as np
import pytest

from corings import zmod
from corings.extensions import (
    amitsur_rebase,
    external_extension,
    interleave,
    rebase_iso,
    rebase_pushforward,
)
from corings.rings import RingHom, RingTooLarge, enumerate_units
from tests.conftest import desk_extensions


def test_tensor_power_ranks(f4_over_f2, gr42_over_z4):
    for ext in (f4_over_f2, gr42_over_z4):
        for m in (1, 2, 3, 4):
            t = ext.tensor_power(m)
            assert t.rank == ext.base.rank * ext.degree**m
            t.ring.validate()


def test_tensor_power_level_one_is_top(f4_over_f2):
    assert f4_over_f2.tensor_power(1).ring is f4_over_f2.top


def test_tensor_square_of_f4_splits(f4_over_f2):
    """F4 ⊗ F4 over F2 is F4 x F4: four idempotents, nine units."""
    t2 = f4_over_f2.tensor_power(2)
    idem = 0
    for coeffs in itertools.product(range(2), repeat=4):
        v = np.array(coeffs)
        if (t2.ring.mul_vec(v, v) == v).all():
            idem += 1
    assert idem == 4
    assert len(enumerate_units(t2.ring)) == 9


def test_units_of_f4_cube(f4_over_f2):
    t3 = f4_over_f2.tensor_power(3)
    assert len(enumerate_units(t3.ring)) == 81


def test_face_maps_are_ring_homs(f4_over_f2, gr42_over_z4):
    for ext in (f4_over_f2, gr42_over_z4):
        for m in (1, 2, 3):
            for i in range(1, m + 2):
                h = ext.face_map(m, i)
                assert h.is_unital() and h.is_multiplicative()


def test_face_map_inserts_one(f4_over_f2):
    ext = f4_over_f2
    a = ext.top.basis_element(1).coeffs
    one = ext.top.one
    t2, t3 = ext.tensor_power(2), ext.tensor_power(3)
    st = t2.embed_pure([a, one])
    # eta_2(s⊗t) = s⊗1⊗t
    assert (ext.face_map(2, 2).apply_vec(st) == t3.embed_pure([a, one, one])).all()
    # eta_1(s⊗t) = 1⊗s⊗t
    assert (ext.face_map(2, 1).apply_vec(st) == t3.embed_pure([one, a, one])).all()


def test_simplicial_identities(f4_over_f2, gr42_over_z4):
    """eta_j ∘ eta_i = eta_i ∘ eta_{j-1} for i < j, on every basis element."""
    for ext in (f4_over_f2, gr42_over_z4):
        for m in (1, 2):
            for j in range(1, m + 3):
                for i in range(1, j):
                    lhs = ext.face_map(m + 1, j).compose(ext.face_map(m, i))
                    rhs = ext.face_map(m + 1, i).compose(ext.face_map(m, j - 1))
                    assert (lhs.matrix == rhs.matrix).all(), (m, i, j)


def test_collapse_map(f4_over_f2):
    ext = f4_over_f2
    t3 = ext.tensor_power(3)
    m3 = ext.collapse_map(3)
    a = ext.top.basis_element(1).coeffs
    assert (m3.apply_vec(t3.one_vec()) == ext.top.one).all()
    # m(a⊗a⊗a) = a^3 = 1 in F4
    assert (m3.apply_vec(t3.embed_pure([a, a, a])) == ext.top.one).all()
    # m ∘ eta_i = m at every level and slot
    for m in (1, 2, 3):
        coll = ext.collapse_map(m)
        coll_up = ext.collapse_map(m + 1)
        for i in range(1, m + 2):
            comp = coll_up.compose(ext.face_map(m, i))
            assert (comp.matrix == coll.matrix).all()


def test_merge_maps_multiply_adjacent_slots(f4_over_f2):
    ext = f4_over_f2
    t3 = ext.tensor_power(3)
    a = ext.top.basis_element(1).coeffs
    one = ext.top.one
    v = t3.embed_pure([a, a, one])
    first = ext.merge_map(3, first=True)
    last = ext.merge_map(3, first=False)
    t2 = ext.tensor_power(2)
    aa = ext.top.mul_vec(a, a)
    assert (first.apply_vec(v) == t2.embed_pure([aa, one])).all()
    assert (last.apply_vec(v) == t2.embed_pure([a, a])).all()
    assert first.is_multiplicative() and last.is_multiplicative()


def test_slot_embed(gr42_over_z4):
    ext = gr42_over_z4
    x = ext.top.basis_element(1).coeffs
    one = ext.top.one
    t3 = ext.tensor_power(3)
    for i, expect in [
        (1, [x, one, one]),
        (2, [one, x, one]),
        (3, [one, one, x]),
    ]:
        h = ext.slot_embed(3, i)
        assert (h.apply_vec(x) == t3.embed_pure(expect)).all()


def test_rank_cap(f4_over_f2):
    """A level above DEFAULT_RANK_CAP is refused before it is built; a built level is returned."""
    from corings.extensions import Extension

    ext = Extension(f4_over_f2.base, f4_over_f2.top, f4_over_f2.eta, f4_over_f2.basis)
    with pytest.raises(RingTooLarge):
        ext.tensor_power(30)
    assert ("power", 30) not in ext._cache
    built = ext.tensor_power(2)  # rank 4
    assert ext.tensor_power(2) is built


def test_rank_refusals_over_a_rank_two_base(f4_over_f2):
    """Over (F4⊗F4)/F4 (base rank 2) the rank is 2·2^m: exact while Python prints it, else a power."""
    rebased = amitsur_rebase(f4_over_f2)
    with pytest.raises(RingTooLarge, match=r"^S\^⊗9 over .* has rank 1024, cap is 600$"):
        rebased.tensor_power(9)
    with pytest.raises(RingTooLarge, match=rf"has rank {2 * 2**14000}, cap is 600$"):
        rebased.tensor_power(14000)
    with pytest.raises(RingTooLarge, match=r"has rank 2·2\^14300, cap is 600$"):
        rebased.tensor_power(14300)


def test_extension_rejects_non_basis(f2, f4):
    eta = RingHom(f2, f4, np.outer(f4.one, f2.one) % 2)
    from corings.extensions import Extension

    with pytest.raises(ValueError):
        Extension(f2, f4, eta, np.array([[1, 0], [1, 0]]))  # dependent rows


def test_rebase_along_top_is_amitsur_extension(f4_over_f2):
    ext = f4_over_f2
    reb = amitsur_rebase(ext)
    assert reb.base == ext.top
    assert reb.degree == ext.degree
    reb.top.validate()
    # natural iso at levels 1..3 is a ring isomorphism onto S^{⊗(m+1)}
    for m in (1, 2, 3):
        iso = rebase_iso(ext, m)
        src = reb.tensor_power(m).ring
        tgt = ext.tensor_power(m + 1).ring
        hom = RingHom(src, tgt, iso)  # validates unital + multiplicative
        from corings import zmod

        assert zmod.is_invertible(iso, ext.n)


def test_rebase_pushforward_matches_iso_and_face(f4_over_f2):
    """Pushing u ∈ S^⊗3 to (S⊗S)^{⊗_S 3} then down the natural iso is u_4."""
    ext = f4_over_f2
    reb = amitsur_rebase(ext)
    push = rebase_pushforward(ext, ext.eta, 3)
    iso3 = rebase_iso(ext, 3)
    eta4 = ext.face_map(3, 4).matrix
    assert (((iso3 @ push) - eta4) % ext.n == 0).all()


def test_external_extension_of_f4_with_itself(f4_over_f2):
    ext = f4_over_f2
    big = external_extension(ext, ext)
    assert big.degree == 4
    assert big.top.rank == 4
    big.top.validate()
    t2 = big.tensor_power(2)
    t2.ring.validate()
    assert t2.rank == 16


def test_interleave_is_multiplicative(f4_over_f2):
    """Interleaving is the ring map S^⊗3 ⊗ T^⊗3 -> (S⊗T)^⊗3 on pure pairs."""
    ext = f4_over_f2
    big = external_extension(ext, ext)
    t3 = ext.tensor_power(3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u1, u2 = rng.integers(0, 2, size=(2, t3.rank))
        v1, v2 = rng.integers(0, 2, size=(2, t3.rank))
        lhs = interleave(ext, ext, big, 3, t3.ring.mul_vec(u1, u2), t3.ring.mul_vec(v1, v2))
        big3 = big.tensor_power(3)
        rhs = big3.ring.mul_vec(
            interleave(ext, ext, big, 3, u1, v1), interleave(ext, ext, big, 3, u2, v2)
        )
        assert (lhs == rhs).all()


def ref_is_multiplicative(hom):
    """The multiplicativity check as three int64 einsums."""
    n, m = hom.target.n, hom.matrix
    lhs = np.einsum("ijk,lk->ijl", hom.source.struct.astype(np.int64), m) % n
    imgs = m.T
    prod = np.einsum("ia,abl->ibl", imgs, hom.target.struct.astype(np.int64)) % n
    rhs = np.einsum("ibl,jb->ijl", prod, imgs) % n
    return not ((lhs - rhs) % n).any()


def simplicial_maps(ext, top_level=3):
    """Every face, merge and collapse map of ext up to level top_level."""
    for m in range(1, top_level + 1):
        yield from (ext.face_map(m, i) for i in range(1, m + 2))
        yield ext.collapse_map(m)
        if m >= 2:
            yield from (ext.merge_map(m, first) for first in (True, False))


def test_is_multiplicative_matches_einsum_route(request):
    """The GEMM check against the einsum route: on every face, merge and
    collapse map of the desk fixtures and (F4⊗F4)/F4, and on unital
    perturbations of them, which are mostly not multiplicative."""
    rng = np.random.default_rng(17)
    rejected = 0
    for ext in desk_extensions(request):
        for hom in simplicial_maps(ext):
            assert hom.is_multiplicative() and ref_is_multiplicative(hom)
            # hom + v ⊗ w with w·1 = 0 still sends 1 to 1
            src, tgt, n = hom.source, hom.target, hom.target.n
            ker = zmod.kernel_right(src.one[None, :], n)
            w = (rng.integers(0, n, size=len(ker)) @ ker) % n
            mat = (hom.matrix + np.outer(rng.integers(0, n, size=tgt.rank), w)) % n
            bent = RingHom(src, tgt, mat, check=False)
            assert bent.is_unital()
            verdict = ref_is_multiplicative(bent)
            assert bent.is_multiplicative() == verdict
            if not verdict:
                rejected += 1
                with pytest.raises(ValueError, match="map is not multiplicative"):
                    RingHom(src, tgt, mat)
    assert rejected >= 60
