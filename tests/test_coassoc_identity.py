"""The coassociativity tag of the census by two form identities, not a sweep.

`classify_all` checks that the coassociativity tensor G and the cosickle
form F span the same quadratic maps (G at β_c = −ι(β_c)·F and G at 1⊗1 =
−F on symmetric coefficients) and then takes the kept cosickle mask as the
coassociative one; only when an identity fails does it sweep G.  The
almost invertible tag tests both partial collapses on the cosickle rows
alone.  The oracles are the per-element einsum of G (`einsum_coassoc_mask`)
and the whole-grid partial-collapse unit masks the census used to sweep.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from corings import classify, zmod
from corings.amitsur import cosickle_form
from corings.classify import classify_all
from corings.rings import Grid, InternalCheckError
from tests.conftest import RANDOM_EXTENSION_CASES, random_case_extension
from tests.test_census_digests import CENSUS_CASES, CENSUS_DIGESTS, MASKS, mask_digest
from tests.test_kernels import einsum_coassoc_mask


def whole_grid_collapse_units(ext, grid):
    """The partial-collapse unit masks as the census swept them: one grid unit
    mask per merge map M, against the residue fields of S^⊗2 read through M."""
    residue2 = ext.tensor_power(2).ring.residue_fields
    mask = np.ones(grid.size, dtype=bool)
    for first in (True, False):
        merge = ext.merge_map(3, first=first).matrix.T
        mask &= grid.unit_mask(residue2._replace(proj=zmod.matmul_mod(merge, residue2.proj, ext.n)))
    return mask


def census_with_spy(ext, cap=2**20):
    """classify_all on ext, with every Grid.zero_mask and Grid.unit_mask call recorded."""
    real_zeros, real_units = Grid.zero_mask, Grid.unit_mask
    with mock.patch.object(Grid, "zero_mask", autospec=True, side_effect=real_zeros) as zeros, \
            mock.patch.object(Grid, "unit_mask", autospec=True, side_effect=real_units) as units:
        census = classify_all(ext, cap=cap, counit_oracle=False)
    return census, zeros.call_args_list, units.call_args_list


def check_identity_route(ext, cap=2**20):
    """One zero-set sweep, of the cosickle form, and no partial-collapse unit
    sweep; the tags equal the per-element and whole-grid oracles."""
    census, zero_sweeps, unit_sweeps = census_with_spy(ext, cap)
    assert [c.args[1] is cosickle_form(ext) for c in zero_sweeps] == [True]
    assert [c.args[1] is ext.tensor_power(3).ring.residue_fields for c in unit_sweeps] == [True]
    assert census.is_coassociative is census.is_cosickle

    grid = census.grid
    if grid.size <= 1 << 14:
        idx = np.arange(grid.size)
    else:  # every coassociative element and a seeded sample of the others
        rng = np.random.default_rng(grid.size)
        idx = np.union1d(np.flatnonzero(census.is_coassociative), rng.choice(grid.size, 1 << 12, replace=False))
    assert (census.is_coassociative[idx] == einsum_coassoc_mask(ext, grid.rows_at(idx))).all()

    assert (census.is_almost_invertible == (census.is_cosickle & whole_grid_collapse_units(ext, grid))).all()


@pytest.mark.parametrize("name", list(CENSUS_CASES))
def test_identity_route_on_fixtures(name):
    """The desk fixtures, (F4⊗F4)/F4 and GF(25)/F5."""
    check_identity_route(CENSUS_CASES[name]())


@settings(max_examples=20, deadline=None)
@given(RANDOM_EXTENSION_CASES)
def test_identity_route_on_random_extensions(case):
    check_identity_route(random_case_extension(case), cap=2**21)


# -- trips: a coassociativity tensor that breaks an identity -----------------------------


def patched_tensor(monkeypatch, change):
    """Make classify_all read change(G) for its coassociativity tensor G.

    classify_all keeps the coassociative mask in the memo of its extension,
    so each patch needs a fresh extension: CENSUS_CASES builds one per call."""
    real = classify._coassoc_difference_tensor
    monkeypatch.setattr(classify, "_coassoc_difference_tensor", lambda ext: change(real(ext).copy(), ext.n))


def test_same_zero_set_takes_the_fallback_sweep(monkeypatch):
    """Over GF(9)/F3, one output of G negated (times the unit 2): the
    identities fail, but the span, so the zero set, is the same.  The census
    sweeps G and reads exactly as before."""

    def negate_one_output(g, n):
        col = np.flatnonzero(g.any(axis=(0, 1)))[0]
        g[:, :, col] = (-g[:, :, col]) % n
        return g

    patched_tensor(monkeypatch, negate_one_output)
    census, zero_sweeps, _ = census_with_spy(CENSUS_CASES["gf9_over_f3"]())
    assert len(zero_sweeps) == 2 and zero_sweeps[1].args[1] is not cosickle_form(census.ext)
    assert census.is_coassociative is not census.is_cosickle
    counts, digests = CENSUS_DIGESTS["gf9_over_f3"]
    assert census.counts == counts
    assert [mask_digest(getattr(census, m)) for m in MASKS] == digests


def test_changed_zero_set_trips_the_chain_check(monkeypatch):
    """One coefficient of G off by one, that of x_0^2 in its first output: the
    identities fail, and the fallback sweep drops the unit e_0 = 1⊗1⊗1, a
    cosickle at which G vanishes, from the coassociative mask, so the census
    chain check refuses."""

    def bump_one_entry(g, n):
        g[0, 0, 0] = (g[0, 0, 0] + 1) % n
        return g

    ext = CENSUS_CASES["gf9_over_f3"]()
    assert (ext.tensor_power(3).ring.one == np.eye(8, dtype=np.int64)[0]).all()
    patched_tensor(monkeypatch, bump_one_entry)
    with pytest.raises(InternalCheckError, match="tag implication chain violated in census"):
        classify_all(ext, counit_oracle=False)
