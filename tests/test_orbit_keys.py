"""B^2-orbits on lex keys, one census proof per extension, and fresh witnesses.

`classify.monoid_quotient` takes the B^2-orbits of a cosickle monoid on lex
keys (`Grid.keys`, the flat index of a row): per block, the products with
B^2 as keys, sorted along each row.  The oracle is the route it replaced,
`conftest.sorted_cosets`, which lexsorts the product rows themselves;
representatives, orbit sizes and invertible flags must be equal byte for
byte.  `classify_all` keeps its coassociative mask in the extension's memo,
so a second census builds no coassociativity tensor.  `cohomologous`
returns a row the caller owns on both of its paths.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import classify
from corings.amitsur import TwistElement, b2_rows, cohomologous, compute_h2
from corings.classify import classify_all, monoid_quotient
from corings.coring import iso_test, twisted_coring
from corings.rings import Grid
from tests.conftest import RANDOM_EXTENSION_CASES, coset_quotient, desk_extensions, random_case_extension
from tests.test_census_digests import CENSUS_CASES, MASKS


def same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_quotients(ext, jobs, cap=2**20):
    """Both monoid quotients of ext against the sorted_cosets route."""
    census = classify_all(ext, cap=cap, counit_oracle=False)
    b2 = b2_rows(ext, cap=cap)
    for which, mask in (("full", census.is_cosickle), ("almost", census.is_almost_invertible)):
        q = monoid_quotient(ext, which, cap=cap, jobs=jobs)
        reps, sizes, invertible = coset_quotient(ext, census, mask, b2)
        same_bytes(q.representatives, reps)
        assert q.orbit_sizes == sizes and all(type(k) is int for k in q.orbit_sizes)
        same_bytes(q.invertible, invertible)
        same_bytes(q.b2, b2)


# -- lex keys -------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_keys_invert_rows_at(n, rank, seed):
    grid = Grid(n, rank)
    idx = np.random.default_rng(seed).integers(0, grid.size, size=50)
    same_bytes(grid.keys(grid.rows_at(idx)), idx.astype(np.int64))
    assert (grid.keys(grid.rows()) == np.arange(grid.size)).all()


@pytest.mark.parametrize("n, rank", [(2, 62), (3, 39), (2**31, 2)])
def test_keys_are_exact_up_to_the_largest_grid(n, rank):
    """Up to 2^62 elements, the most Grid.of allows, the last row's key is
    n^r - 1 and the first unit vector's is n^(r-1).  keys reads only n and
    the rank, so no digit table of such a grid is built."""
    assert n**rank <= 2**62
    grid = object.__new__(Grid)
    grid.n, grid.rank = n, rank
    rows = np.vstack([np.full(rank, n - 1), np.eye(rank, dtype=np.int64)[0]])
    assert grid.keys(rows).tolist() == [n**rank - 1, n ** (rank - 1)]


# -- the oracle net --------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("name", list(CENSUS_CASES))
def test_quotient_matches_sorted_cosets(name, jobs):
    """The desk fixtures, (F4⊗F4)/F4 and GF(25)/F5, each built fresh per jobs value."""
    check_quotients(CENSUS_CASES[name](), jobs)


@settings(max_examples=20, deadline=None)
@given(RANDOM_EXTENSION_CASES, st.sampled_from([1, 4]))
def test_quotient_matches_sorted_cosets_on_random_extensions(case, jobs):
    check_quotients(random_case_extension(case), jobs, cap=2**21)


# -- one census proof per extension ----------------------------------------------------


@pytest.mark.parametrize("name", ["gf9_over_f3", "f4f4_over_f4"])
def test_second_census_proves_nothing_again(name, monkeypatch):
    """A second classify_all builds no coassociativity tensor and reads the
    same masks; the counit oracle and the chain check still run."""
    ext = CENSUS_CASES[name]()
    first = classify_all(ext, counit_oracle=False)
    built = []
    real = classify._coassoc_difference_tensor
    monkeypatch.setattr(classify, "_coassoc_difference_tensor", lambda e: built.append(e) or real(e))
    second = classify_all(ext, counit_oracle=name == "gf9_over_f3")
    assert built == []
    assert second.is_coassociative is first.is_coassociative
    for m in MASKS:
        same_bytes(getattr(second, m), getattr(first, m))
    if second.counit_solvable is not None:
        same_bytes(second.admits_counit, second.is_almost_invertible)


# -- fresh witnesses ---------------------------------------------------------------------


def test_cohomologous_returns_a_fresh_writable_row(request):
    """On equal inputs (the identity witness) and unequal ones (a search hit)
    the witness owns its data and can be changed, and the ring's one is not."""
    for ext in desk_extensions(request):
        t2 = ext.tensor_power(2).ring
        one = t2.one.copy()
        z2 = compute_h2(ext).z2
        u, v = TwistElement(ext, z2[0]), TwistElement(ext, z2[-1])
        for a, b in ((u, u), (u, v)):
            w = cohomologous(a, b)
            assert w is not t2.one and w.flags.owndata and w.flags.writeable
            witness = iso_test(twisted_coring(ext, a.u.coeffs), twisted_coring(ext, b.u.coeffs))
            same_bytes(witness, w)
            w += 1
        same_bytes(t2.one, one)
        assert not t2.one.flags.writeable


# -- import footprint -------------------------------------------------------------------


FOOTPRINT = """
import io, json, sys

before = set(sys.modules)
import numpy as np
loaded = lambda: sorted(m for m in ("numpy.ma",) if m in sys.modules and m not in before)
from corings import cli
from corings.classify import monoid_quotient
from corings.extensions import Extension
from corings.rings import RingHom, make_quotient_ring, zmod_ring

f3, f9 = zmod_ring(3), make_quotient_ring(3, [1, 0, 1])
ext = Extension(f3, f9, RingHom(f3, f9, np.array([[1], [0]])), np.eye(2, dtype=np.int64))
q = monoid_quotient(ext, "full")
after_quotient = loaded()
code = cli.run([sys.argv[1]], stdout=io.BytesIO())
print(json.dumps([len(q.representatives), after_quotient, code, loaded()]))
"""


def test_quotient_and_classify_load_no_numpy_ma(tmp_path):
    """In a fresh interpreter neither monoid_quotient over GF(9)/F3 nor a
    `classify` job loads numpy.ma (np.unique does, except in its 1-d
    return_index form); modules loaded before the import do not count."""
    from tests.test_acceptance import CLASSIFY_JOBS

    name, rings, extension = CLASSIFY_JOBS[0]
    job_file = tmp_path / f"{name}.json"
    job_file.write_text(json.dumps({"rings": rings, "extension": extension, "command": {"name": "classify"}}))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(job_file)], capture_output=True, env=env, check=True)
    orbits, after_quotient, code, after_job = json.loads(proc.stdout)
    assert orbits > 1 and code == 0
    assert after_quotient == after_job == []
