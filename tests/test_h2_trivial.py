"""H^2(S/R, U) = 1 on every accepted input, against the closed form of |B^2|.

Chase–Rosenberg's seven-term sequence gives Z^2 = B^2 over a finite base and,
in degree 0, |B^2| = |U(S⊗S)|·|U(R)|/|U(S)| (README, "Mathematics").  Each
|U| is counted here by `enumerate_units`, apart from `b2_rows`.  Where the
census of S^⊗3 fits the cap, the B^2-orbits of the cosickle monoid
(`monoid_quotient`, on lex keys) hold exactly one invertible
orbit, whose lex-least member is the z2[0] that compute_h2 names without
forming a coset.
"""

import pytest
from hypothesis import given, settings

from corings.amitsur import b2_rows, compute_h2
from corings.classify import monoid_quotient
from corings.rings import DEFAULT_CAP, enumerate_units, make_quotient_ring, zmod_ring
from tests.conftest import RANDOM_EXTENSION_CASES, desk_extensions, random_case_extension, simple_extension

# GF(27)/F3 (1352) is left out: its S⊗S takes about a second to enumerate.
NAMED = {
    "gf25_over_f5": (5, [2, 0, 1], 96),
    "gf8_over_f2": (2, [1, 1, 0, 1], 49),
    "gr82_over_z8": (8, [1, 1, 1], 192),
    "z6_omega_over_z6": (6, [1, 1, 1], 54),
}


def units(ring):
    return len(enumerate_units(ring, as_array=True))


def check_closed_form(ext):
    """|B^2| by its closed form, and one invertible B^2-orbit where the census fits."""
    b2 = b2_rows(ext)
    whole, rest = divmod(units(ext.tensor_power(2).ring) * units(ext.base), units(ext.top))
    assert (len(b2), rest) == (whole, 0)
    if ext.tensor_power(3).ring.size <= DEFAULT_CAP:
        q = monoid_quotient(ext, "full")
        assert q.counts["invertible_orbits"] == 1
        assert q.representatives[q.invertible].tobytes() == compute_h2(ext).representatives.tobytes()
    return len(b2)


def test_closed_form_on_desk_fixtures(request):
    """The desk fixtures and (F4⊗F4)/F4."""
    for ext in desk_extensions(request):
        check_closed_form(ext)


@pytest.mark.parametrize("name", NAMED)
def test_closed_form_on_named_extensions(name):
    p, poly, order = NAMED[name]
    assert check_closed_form(simple_extension(zmod_ring(p), make_quotient_ring(p, poly))) == order


@settings(max_examples=25, deadline=None)
@given(RANDOM_EXTENSION_CASES)
def test_closed_form_on_random_extensions(case):
    check_closed_form(random_case_extension(case))
