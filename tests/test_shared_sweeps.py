"""The census facts of S^⊗3 computed once per object, against the routes they replaced.

`enumerate_units`, `compute_h2` and `classify_all` read one unit mask kept
on the ring of S^⊗3 and one cosickle zero set kept on the extension, and
`Grid.zero_mask` sweeps a generating set of a form's column module in
place of its distinct columns.  Every mask must equal the one the
unshared routes and the full forms give, and a kept sweep must still be
refused under a smaller cap.  `coassoc_difference` contracts with one
float64 GEMM per triple coproduct; `prev_coassoc_difference`, its former
int64 einsum, is the oracle.
"""

from unittest import mock

import numpy as np
import pytest

from corings.amitsur import compute_h2, cosickle_form, cosickle_zeros
from corings.classify import _coassoc_difference_tensor, classify_all
from corings.coring import coassoc_difference, term_coproducts, twisted_coring
from corings.extensions import amitsur_rebase
from corings.rings import Grid, RingTooLarge, enumerate_units, make_quotient_ring, zmod_ring
from tests.conftest import desk_extensions, random_extension, refined_compare_corings, simple_extension
from tests.test_grid import reference_zero_mask


def prev_coassoc_difference(ext, left, right):
    """coassoc_difference as two int64 einsums with optimize=True."""
    d, kr = ext.degree, ext.base.rank
    dl = left.reshape(len(left), d, d, d, kr, d, d, kr)
    dr = right.reshape(len(right), d, d, d, kr, -1)
    first = np.einsum("iabctxyr,jxylrC->ijabcltC", dl, dr, optimize=True)
    last = np.einsum("iabctyzr,jxyzrC->ijxabctC", dl, dr, optimize=True)
    return ((first - last) % ext.n).reshape(len(left), len(right), -1)


def fresh_rebased():
    """(F4⊗F4)/F4 on new objects, so nothing is kept from other tests."""
    f4_over_f2 = simple_extension(zmod_ring(2), make_quotient_ring(2, [1, 1, 1]))
    return amitsur_rebase(f4_over_f2)


# -- coassoc_difference ---------------------------------------------------------------


def check_coassoc_difference(ext, left, right):
    got = coassoc_difference(ext, left, right)
    want = prev_coassoc_difference(ext, left, right)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


def test_coassoc_difference_matches_einsum_on_desk_fixtures(request):
    """The census tensor (every pair of term coproducts), single twists and
    unequal stacks, on the desk fixtures and (F4⊗F4)/F4."""
    rng = np.random.default_rng(7)
    for ext in desk_extensions(request):
        t3 = ext.tensor_power(3)
        deltas = term_coproducts(ext, *t3.support(np.ones(t3.rank, dtype=np.int64)))
        check_coassoc_difference(ext, deltas, deltas)
        assert (_coassoc_difference_tensor(ext) == prev_coassoc_difference(ext, deltas, deltas)).all()
        twists = [twisted_coring(ext, rng.integers(0, ext.n, t3.rank)).comultiplication for _ in range(3)]
        check_coassoc_difference(ext, np.stack(twists[:1]), np.stack(twists))
        check_coassoc_difference(ext, np.stack(twists), deltas[:2])


def test_coassoc_difference_matches_einsum_on_refined_coring():
    for refined in refined_compare_corings():
        dm = refined.comultiplication[None]
        check_coassoc_difference(refined.ext, dm, dm)
        assert refined.is_coassociative


# -- column-basis zero sets ----------------------------------------------------------


def census_forms(ext):
    return cosickle_form(ext), _coassoc_difference_tensor(ext)


def test_zero_mask_on_full_census_forms(request):
    """The whole grid of S^⊗3 of each desk fixture and of (F4⊗F4)/F4."""
    for ext in desk_extensions(request):
        grid = Grid.of(ext.tensor_power(3).ring)
        rows = grid.rows()
        for form in census_forms(ext):
            assert (grid.zero_mask(form) == reference_zero_mask(rows, form, ext.n)).all(), ext


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("rebased", [False, True])
def test_zero_mask_on_census_forms_over_composite_moduli(n, rebased):
    """S^⊗3 of a quadratic extension over Z/6 or Z/12 has 6^8 to 12^16
    elements, so each census form is swept on coordinate subspaces of
    4 or 5 coordinates, whose zero sets are those of the restricted form."""
    ext = random_extension(n, [1, 1, 1], rebased)
    rank = ext.tensor_power(3).rank
    side = 5 if n == 6 else 4
    grid = Grid(n, side)
    rows = grid.rows()
    rng = np.random.default_rng(n + rebased)
    for form in census_forms(ext):
        for idx in [np.arange(side)] + [np.sort(rng.choice(rank, side, replace=False)) for _ in range(4)]:
            sub = form[np.ix_(idx, idx)]
            want = reference_zero_mask(rows, sub, n)
            assert (grid.zero_mask(sub) == want).all(), idx
            alive = rng.random(grid.size) < 0.5
            assert (grid.zero_mask(sub, alive) == (want & alive)).all(), idx


# -- one sweep per object ---------------------------------------------------------------


def test_one_unit_sweep_and_one_cosickle_sweep():
    """enumerate_units of S^⊗3, compute_h2 and classify_all sweep the unit
    mask of S^⊗3 once and the cosickle form once, and nothing else: the
    coassociativity tag comes from the form identities and the partial
    collapses are tested on the cosickle rows.  Their masks equal those of
    the unshared routes."""
    ext = fresh_rebased()
    t3 = ext.tensor_power(3).ring
    form = cosickle_form(ext)
    real_units, real_zeros = Grid.unit_mask, Grid.zero_mask
    with mock.patch.object(Grid, "unit_mask", autospec=True, side_effect=real_units) as units_spy, \
            mock.patch.object(Grid, "zero_mask", autospec=True, side_effect=real_zeros) as zeros_spy:
        units = enumerate_units(t3, as_array=True)
        h2 = compute_h2(ext)
        census = classify_all(ext, counit_oracle=False)
    # one unit mask of S^⊗3, the others those of S^⊗2 (B^2), none through a partial collapse
    residues = [c.args[1] for c in units_spy.call_args_list]
    assert [r is t3.residue_fields for r in residues].count(True) == 1
    assert all(r is t3.residue_fields or r is ext.tensor_power(2).ring.residue_fields for r in residues)
    assert [c.args[1] is form for c in zeros_spy.call_args_list] == [True]

    grid = Grid.of(t3)
    unit_mask = grid.unit_mask(t3.residue_fields)
    assert (census.is_unit == unit_mask).all()
    assert (units == grid.rows(unit_mask)).all()
    assert (h2.z2 == grid.rows(grid.zero_mask(form, alive=unit_mask))).all()
    assert (census.is_cosickle == grid.zero_mask(form)).all()
    assert (census.is_cosickle == reference_zero_mask(grid.rows(), form, ext.n)).all()
    assert (census.is_cocycle == (unit_mask & census.is_cosickle)).all()
    assert not census.is_unit.flags.writeable and not census.is_cosickle.flags.writeable


def test_kept_sweeps_are_refused_under_a_smaller_cap():
    ext = fresh_rebased()
    t3 = ext.tensor_power(3).ring
    enumerate_units(t3)
    compute_h2(ext)
    classify_all(ext, counit_oracle=False)
    cap = 1000  # S^⊗2 has 256 elements, S^⊗3 65536
    for call in (
        lambda: t3.unit_mask(cap),
        lambda: enumerate_units(t3, cap=cap),
        lambda: cosickle_zeros(ext, cap),
        lambda: compute_h2(ext, cap=cap),
        lambda: classify_all(ext, cap=cap, counit_oracle=False),
    ):
        with pytest.raises(RingTooLarge, match="cap is 1000"):
            call()
    assert len(compute_h2(ext).z2) == len(compute_h2(ext, cap=1 << 16).z2)
