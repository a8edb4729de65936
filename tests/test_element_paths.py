"""Single-element paths against the routes they replaced, and guards on their cost.

`FiniteRing.mulmat` is the one single-element contraction and `mul_vec`
applies its matrix; the routes they replaced are kept here as oracles: the
whole-table einsum of `mulmat`, the own contraction of `mul_vec` and the
sparse/dense two-path product before it.  The coordinate map and R-valued
multiplication of an `Extension` are batched products; the per-pair loops
that built them are kept as oracles too.  `is_two_cocycle`
builds delta_2(u) from the inverse its twist caches; it is compared with
delta_2(u) = 1 on units and with the batched `cocycle_mask`.
`is_almost_invertible` decides its partial collapses by `try_invert`; it is
compared with `batch_is_unit` and with the census mask.  The guards count
Howell solves on the Brauer-class path, in building an `Extension`, in one
coring axiom report and in a base-change witness, count the verdicts a
coring decides, check that a census keeps its rows unbuilt until they are
read, and that an almost-invertibility verdict builds no residue field.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corings import classify, zmod
from corings.amitsur import (
    TwistElement,
    b2_rows,
    base_change_witness,
    cocycle_mask,
    compute_h2,
    cosickle_zeros,
    delta2,
    is_two_cocycle,
)
from corings.classify import BrauerClass, classify_all, monoid_quotient
from corings.extensions import Extension, amitsur_rebase, external_extension
from corings.rings import (
    FiniteRing,
    Grid,
    InternalCheckError,
    make_product_ring,
    make_quotient_ring,
    try_invert,
    zmod_ring,
)
from tests.conftest import DESK, desk_extensions, random_extension, simple_extension, skewed, sorted_cosets

MODULI = [2, 3, 4, 6, 8, 9, 12, zmod.MAX_MODULUS]


def two_path_mul_vec(ring, x, y):
    """The product mul_vec replaced: per-coefficient table slices when there
    are few nonzero pairs, the float64 bilinear kernel otherwise."""
    nx = np.nonzero(x)[0]
    ny = np.nonzero(y)[0]
    if len(nx) * len(ny) <= 4 * ring.rank:
        out = np.zeros(ring.rank, dtype=np.int64)
        for i in nx:
            out += int(x[i]) * (y[ny] @ ring.struct[i][ny].astype(np.int64))
        return out % ring.n
    return zmod.bilinear_mod(x[None, :], y[None, :], ring.struct, ring.n)[0]


def contraction_mul_vec(ring, x, y):
    """The product mul_vec formed itself: mx = sum_i x_i c[i] over the nonzero x_i, then y·mx."""
    r = ring.rank
    nx = x.nonzero()[0]
    mx = (x[nx] @ ring.struct.reshape(r, r * r)[nx]) % ring.n
    return (y @ mx.reshape(r, r)) % ring.n


def einsum_mulmat(ring, x):
    """The multiplication matrix mulmat replaced: one int64 einsum over the whole table."""
    return np.einsum("i,ijk->kj", x, ring.struct) % ring.n


def check_element_routes(ring, x, y):
    """mul_vec and mulmat on one pair against each route they replaced."""
    got = ring.mul_vec(x, y)
    assert got.dtype == np.int64 and got.shape == (ring.rank,)
    assert (got == two_path_mul_vec(ring, x, y)).all()
    assert (got == contraction_mul_vec(ring, x, y)).all()
    mat = ring.mulmat(x)
    assert mat.dtype == np.int64 and (mat == einsum_mulmat(ring, x)).all()


# -- mul_vec and mulmat --------------------------------------------------------------


def test_mul_vec_on_basis_pairs_matches_two_path_product(request):
    """Every basis pair of S^⊗m, m = 1..4, over the desk fixtures and (F4⊗F4)/F4."""
    for ext in desk_extensions(request):
        for m in range(1, 5):
            ring = ext.tensor_power(m).ring
            eye = np.eye(ring.rank, dtype=np.int64)
            for x in eye:
                for y in eye:
                    check_element_routes(ring, x, y)


def ring_with_pair(n):
    """A quotient or product ring over Z/n with two elements, zero vectors included."""
    monic = st.integers(1, 4).flatmap(lambda d: st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
    quotient = monic.map(lambda f: make_quotient_ring(n, f + [1]))
    product = st.tuples(quotient, quotient).map(lambda ab: make_product_ring(*ab))

    def pair(ring):
        vec = st.one_of(
            st.just([0] * ring.rank),
            st.lists(st.integers(0, n - 1), min_size=ring.rank, max_size=ring.rank),
        )
        return st.tuples(st.just(ring), vec, vec)

    return st.one_of(quotient, product).flatmap(pair)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODULI).flatmap(ring_with_pair))
def test_mul_vec_matches_two_path_product_on_random_rings(case):
    ring, x, y = case
    x = np.array(x, dtype=np.int64)
    y = np.array(y, dtype=np.int64)
    check_element_routes(ring, x, y)
    assert (ring.mul_vec(x, y) == ring.mul_rows(x[None], y[None])[0]).all()


@pytest.mark.parametrize("n", MODULI)
def test_mul_vec_on_rank_one_and_zero(n):
    ring = zmod_ring(n)
    zero = np.zeros(1, dtype=np.int64)
    for a in range(min(n, 13)):
        x = np.array([a], dtype=np.int64)
        for u, v in ((x, np.array([n - 1])), (zero, x), (x, zero)):
            check_element_routes(ring, u, v)
        assert ring.mul_vec(x, np.array([n - 1])).tolist() == [(a * (n - 1)) % n]
        assert ring.mul_vec(zero, x).tolist() == [0] and ring.mul_vec(x, zero).tolist() == [0]


# -- coordinate map and R-valued multiplication --------------------------------------


def loop_phi(ext):
    """The coordinate map as it was built: column (a, rho) is one mul_vec of eta(e_rho) and b_a."""
    top, rank = ext.top, ext.base.rank
    cols = [top.mul_vec(ext.eta.matrix[:, rho], ba) for ba in ext.basis for rho in range(rank)]
    return np.stack(cols, axis=1) % ext.n


def loop_rmult(ext):
    """The R-valued multiplication as it was built: one mul_vec and r_coords per pair i <= j."""
    d = ext.degree
    out = np.zeros((d, d, d, ext.base.rank), dtype=np.int64)
    for i in range(d):
        for j in range(i, d):
            rc = ext.r_coords(ext.top.mul_vec(ext.basis[i], ext.basis[j]))
            out[i, j] = rc
            out[j, i] = rc
    return out


def check_extension_tables(plain, rng):
    """On the declared basis and on a skewed one, where phi is not symmetric."""
    for ext in (plain, skewed(plain, rng)):
        for got, want in ((ext._phi, loop_phi(ext)), (ext.rmult(), loop_rmult(ext))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_extension_tables_match_loops(request, f4_over_f2, f2x2_over_f2, gr42_over_z4):
    """The desk fixtures, the rebased (F4⊗F4)/F4 and external extensions with tensor-ring tops."""
    exts = desk_extensions(request)
    rebased = exts[-1]  # (F4⊗F4)/F4, base rank 2
    for s, t in ((f4_over_f2, f2x2_over_f2), (gr42_over_z4, gr42_over_z4), (rebased, rebased)):
        exts.append(external_extension(s, t))
    rng = np.random.default_rng(11)
    for ext in exts:
        check_extension_tables(ext, rng)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 6, 8, 9, 12]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, 3).flatmap(
                lambda d: st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(lambda c: c + [1])
            ),
            st.booleans(),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_extension_tables_match_loops_on_random_extensions(case):
    n, poly, rebased, seed = case
    try:
        ext = random_extension(n, poly, rebased)
    except ValueError:
        assume(False)
    check_extension_tables(ext, np.random.default_rng(seed))


# -- is_two_cocycle ----------------------------------------------------------------

# GR(4,2)/Z4 has 4^8 elements in S^⊗3; it is checked on its cocycles and on
# every 64th element in lex order, the other desk fixtures on every element.
STRIDE = {"gr42_over_z4": 64}


@pytest.mark.parametrize("name", DESK)
def test_is_two_cocycle_matches_delta2_and_cocycle_mask(request, name):
    ext = request.getfixturevalue(name)
    t3 = ext.tensor_power(3).ring
    t4 = ext.tensor_power(4).ring
    grid = Grid.of(t3)
    unit = grid.unit_mask(t3.residue_fields)
    idx = np.arange(0, grid.size, STRIDE.get(name, 1))
    rows = np.vstack([grid.rows_at(idx), compute_h2(ext).z2])
    units = np.concatenate([unit[idx], np.ones(len(rows) - len(idx), dtype=bool)])
    want = np.zeros(len(rows), dtype=bool)
    want[units] = cocycle_mask(ext, rows[units])
    for row, is_unit, expected in zip(rows, units, want):
        tw = TwistElement(ext, row)
        assert tw.is_unit == is_unit
        assert is_two_cocycle(tw) == expected
        if is_unit:
            assert bool((delta2(ext, row) == t4.one).all()) == expected


def test_cross_check_still_raises_when_the_routes_disagree(gr42_over_z4, monkeypatch):
    ext = gr42_over_z4
    t3 = ext.tensor_power(3).ring
    units = Grid.of(t3).rows_at(np.arange(1, 4096))
    units = units[zmod.batch_is_unit(units, t3.residue_fields)]
    cocycle = compute_h2(ext).z2[1]
    non_cocycle = units[~cocycle_mask(ext, units)][0]
    honest = TwistElement.is_cosickle.func
    monkeypatch.setattr(TwistElement, "is_cosickle", property(lambda tw: not honest(tw)))
    for row in (cocycle, non_cocycle):
        with pytest.raises(InternalCheckError):
            is_two_cocycle(TwistElement(ext, row))


@pytest.mark.parametrize("name", DESK)
def test_is_almost_invertible_matches_batch_is_unit_and_census(request, name):
    """The partial collapses, decided by try_invert, against the route it
    replaced (zmod.batch_is_unit on the residue fields of S^⊗2) and against
    the census mask.  The batch route and the census cover every element of
    S^⊗3; a TwistElement decides every cosickle, and every element on all
    fixtures but GR(4,2)/Z4, where it decides every 64th element besides (a
    non-cosickle is refused before its collapses are tried)."""
    ext = request.getfixturevalue(name)
    residue2 = ext.tensor_power(2).ring.residue_fields
    grid = Grid.of(ext.tensor_power(3).ring)
    rows = grid.rows()
    cosickle = cosickle_zeros(ext)
    batch = cosickle.copy()
    for first in (True, False):
        collapses = zmod.matmul_mod(rows, ext.merge_map(3, first=first).matrix.T, ext.n)
        batch &= zmod.batch_is_unit(collapses, residue2)
    assert (batch == classify_all(ext, counit_oracle=False).is_almost_invertible).all()
    for i in np.union1d(np.flatnonzero(cosickle), np.arange(0, grid.size, STRIDE.get(name, 1))):
        assert TwistElement(ext, rows[i]).is_almost_invertible == batch[i]


# -- cost guards -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gf9_over_f3", "gr42_over_z4"])
def test_brauer_class_of_a_fresh_cocycle_runs_one_howell_solve(request, name):
    ext = request.getfixturevalue(name)
    z2 = compute_h2(ext).z2
    BrauerClass.of_twist(TwistElement(ext, z2[0]))  # builds B^2 and the maps once
    for row in z2[1:4]:
        with mock.patch.object(zmod, "howell", wraps=zmod.howell) as howell:
            BrauerClass.of_twist(TwistElement(ext, row))
        assert howell.call_count == 0  # u^{-1} is a power of u (unit_exponent)


@pytest.mark.parametrize("name", ["gf9_over_f3", "gr42_over_z4"])
def test_brauer_class_inverse_runs_one_howell_solve(request, name):
    """The inverse twist is built knowing its own inverse, so only u^{-1} is
    computed, as a power of u: no Howell form is left."""
    ext = request.getfixturevalue(name)
    z2 = compute_h2(ext).z2
    BrauerClass.of_twist(TwistElement(ext, z2[0]))  # builds B^2 and the maps once
    for row in z2[1:4]:
        cls = BrauerClass.of_twist(TwistElement(ext, row))
        with mock.patch.object(zmod, "howell", wraps=zmod.howell) as howell:
            inv = cls.inverse()
        assert howell.call_count == 0
        # the replaced route: a fresh twist of u^{-1} that inverts it again
        assert inv == BrauerClass.of_twist(TwistElement(ext, cls.twist().inverse.coeffs))
        assert (cls * inv).is_identity()


def test_is_almost_invertible_builds_no_residue_fields(monkeypatch):
    """On a fresh extension, both verdicts (1 and 0 are cosickles; 0 has
    non-unit collapses) come from try_invert, with no residue field built."""
    ext = simple_extension(zmod_ring(4), make_quotient_ring(4, [1, 1, 1]))

    def refuse(ring):
        raise AssertionError(f"residue fields of {ring.name} built")

    monkeypatch.setattr(FiniteRing, "residue_fields", property(refuse))
    one = ext.tensor_power(3).one_vec()
    assert TwistElement(ext, one).is_almost_invertible
    assert not TwistElement(ext, np.zeros_like(one)).is_almost_invertible


def test_azumaya_verdict_is_decided_once_per_coring(f4_over_f2, f2x2_over_f2):
    """compare_via_refinement touches six corings and decides each once."""
    from corings import coring
    from corings.classify import compare_via_refinement
    from corings.coring import canonical_coring, is_azumaya, twisted_coring

    c = twisted_coring(f4_over_f2, compute_h2(f4_over_f2).z2[-1])
    d = canonical_coring(f2x2_over_f2)
    with mock.patch.object(coring, "coassoc_difference", wraps=coring.coassoc_difference) as direct:
        assert compare_via_refinement(c, d).equivalent
        assert is_azumaya(c) and is_azumaya(d)
    assert direct.call_count == 6
    not_unit = twisted_coring(f2x2_over_f2, np.zeros(8, dtype=np.int64))
    assert not is_azumaya(not_unit) and not is_azumaya(not_unit)


def test_building_an_extension_runs_one_howell(request):
    """The coordinate map is inverted once; its ValueError keeps the old message."""
    rng = np.random.default_rng(5)
    for ext in desk_extensions(request):
        for src in (ext, skewed(ext, rng)):
            with mock.patch.object(zmod, "howell", wraps=zmod.howell) as howell:
                Extension(src.base, src.top, src.eta, src.basis)
            assert howell.call_count == 1
    ext = desk_extensions(request)[0]
    with pytest.raises(ValueError, match="declared basis is not a basis"):
        Extension(ext.base, ext.top, ext.eta, np.vstack([ext.basis[:1], ext.basis[:1]]))


def count_calls(monkeypatch, cls, name):
    """Wrap a method so that its calls are counted; returns the list of calls."""
    calls, method = [], getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("name", ["f4_over_f2", "gr42_over_z4"])
def test_coring_axiom_report_decides_each_verdict_once(request, name, monkeypatch):
    """One Howell form, the bijectivity of tilde-Delta; u^{-1} and |u|^{-1}
    are powers, each decided once.  u_1 u_3 = u_2 u_4 takes no face
    computation on a row of the Z^2 that compute_h2 kept (the batch decides
    it) and exactly one on the same row of a fresh extension."""
    from corings.coring import coring_axiom_report, twisted_coring

    kept_ext = request.getfixturevalue(name)
    z2 = compute_h2(kept_ext).z2
    plain_ext = Extension(kept_ext.base, kept_ext.top, kept_ext.eta, kept_ext.basis)
    for ext, want in ((kept_ext, 0), (plain_ext, 1)):
        coring_axiom_report(twisted_coring(ext, z2[0]))  # builds the maps and residue fields once
        c = twisted_coring(ext, z2[-1])
        faces = count_calls(monkeypatch, TwistElement, "faces")
        # is_invertible runs the rows-only Howell form, so count the elimination behind both
        with mock.patch.object(zmod, "_howell_eliminate", wraps=zmod._howell_eliminate) as howell:
            report = coring_axiom_report(c)
        monkeypatch.undo()
        assert len(faces) == want and howell.call_count == 1
        assert report["azumaya"] and report["two_cocycle"] and report["counit_laws"]


@pytest.mark.parametrize("name", ["f4_over_f2", "gr42_over_z4"])
def test_base_change_witness_reads_the_cached_inverse(request, name):
    """u_2^{-1} is the face of u^{-1}, and the witness is read through
    kron(I, phi), the known inverse of the rebase isomorphism; the inversion
    inside delta_1 over (S⊗S)/S is a power, so no Howell form is left."""
    ext = request.getfixturevalue(name)
    z2 = compute_h2(ext).z2
    base_change_witness(TwistElement(ext, z2[0]))  # builds the rebased extension once
    for row in z2[1:4]:
        tw = TwistElement(ext, row)
        assert is_two_cocycle(tw)  # caches u^{-1}
        with mock.patch.object(zmod, "howell", wraps=zmod.howell) as howell:
            assert base_change_witness(tw).verified
        assert howell.call_count == 0
        # the replaced route: u_2 inverted in S^⊗4 by a fresh solve
        t4 = ext.tensor_power(4).ring
        u2 = ext.face_map(3, 2).apply_vec(tw.u.coeffs)
        assert (try_invert(t4.element(u2)).coeffs == ext.face_map(3, 2).apply_vec(tw.inverse.coeffs)).all()


def test_census_rows_are_built_only_when_read(f4_over_f2):
    ext = amitsur_rebase(f4_over_f2)
    censuses = []

    def spy(*args, **kwargs):
        censuses.append(classify_all(*args, **kwargs))
        return censuses[-1]

    census = classify_all(ext)
    with mock.patch.object(classify, "classify_all", spy):
        quotient = monoid_quotient(ext)
    assert censuses and all("elements" not in vars(c) for c in [census, *censuses])
    assert census.counts["elements"] == 2**16 and "elements" not in vars(census)
    # the replaced route: every row built up front, the cosickles picked from it
    rows = Grid.of(ext.tensor_power(3).ring).rows()
    minima = [c[:, 0] for c in sorted_cosets(ext, rows[census.is_cosickle], b2_rows(ext))]
    assert (quotient.representatives == zmod.unique_rows(np.concatenate(minima))).all()
    assert (census.elements == rows).all() and "elements" in vars(census)
