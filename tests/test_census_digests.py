"""The census of S^⊗3 pinned by its counts and one SHA-256 per mask.

The digests were taken from the census routes that swept every tag over
the whole grid (the direct coassociativity form and both partial-collapse
unit masks), so any later route must reproduce those masks bit for bit.
Each case is built fresh per `jobs` value, so nothing is read from a
census another test kept.
"""

import hashlib

import numpy as np
import pytest

from corings.classify import classify_all
from corings.extensions import amitsur_rebase
from corings.rings import make_quotient_ring, zmod_ring
from tests.conftest import simple_extension


def _quotient_over_prime(n, poly):
    return lambda: simple_extension(zmod_ring(n), make_quotient_ring(n, poly))


# the desk fixtures of conftest, (F4⊗F4)/F4 and GF(25)/F5 (5^8 elements)
CENSUS_CASES = {
    "f4_over_f2": _quotient_over_prime(2, [1, 1, 1]),
    "f2x2_over_f2": _quotient_over_prime(2, [0, 1, 1]),
    "z2sq_over_f2": _quotient_over_prime(2, [0, 0, 1]),
    "gr42_over_z4": _quotient_over_prime(4, [1, 1, 1]),
    "gf9_over_f3": _quotient_over_prime(3, [1, 0, 1]),
    "f4f4_over_f4": lambda: amitsur_rebase(_quotient_over_prime(2, [1, 1, 1])()),
    "gf25_over_f5": _quotient_over_prime(5, [2, 0, 1]),
}

MASKS = ("is_unit", "is_cocycle", "is_cosickle", "is_almost_invertible", "is_coassociative")

# name: (census.counts, SHA-256 of each mask of MASKS as bool bytes)
CENSUS_DIGESTS = {
    "f4_over_f2": (
        {"elements": 256, "units": 81, "unit_cocycles": 3, "cosickles": 19, "almost_invertible": 6, "coassociative": 19, "admits_counit": 6},
        ["842f9905ff3302d7d5b34e387beeb8dddbc5d40490dd48239a1a53c69ec98b35", "ab78f6f5cbe94d894e9546b9f57cee9037ee59be237ecc43620af78363f37717", "891df6120cd9081db61ba76d2436671a15b59d08167cbb5020965ec8232bb7ad", "fcc1e0309f45182220a13d6c9bed2575eb4e070c437945fc550e6939a9daa9ba", "891df6120cd9081db61ba76d2436671a15b59d08167cbb5020965ec8232bb7ad"],
    ),
    "f2x2_over_f2": (
        {"elements": 256, "units": 1, "unit_cocycles": 1, "cosickles": 33, "almost_invertible": 2, "coassociative": 33, "admits_counit": 2},
        ["b45b6b3b26795b18cb44da40d81797ce62a16cf8949f1598a2272d736fdabd43", "b45b6b3b26795b18cb44da40d81797ce62a16cf8949f1598a2272d736fdabd43", "e9340dda8f8013d62279878fd2860c956d71714c3c56ba2ee2d76b6ae3111fcc", "e0cb04b64390a0199f03d31219c95ac1ef456798e429896c320e57603499a1f3", "e9340dda8f8013d62279878fd2860c956d71714c3c56ba2ee2d76b6ae3111fcc"],
    ),
    "z2sq_over_f2": (
        {"elements": 256, "units": 128, "unit_cocycles": 4, "cosickles": 22, "almost_invertible": 4, "coassociative": 22, "admits_counit": 4},
        ["c85998e79a9e563bbacb6bd57c36f37214280bf97d6acbf994713a65e4d5ab7f", "2e2fbf1b3ce2f340705da6e7cdaaf302d701bd23500fb9c23a7a7cca81116e9e", "3d7bbe30c57eb4194de61956b9d05995feb5a4d9762a56d9ea3555647c23edc2", "2e2fbf1b3ce2f340705da6e7cdaaf302d701bd23500fb9c23a7a7cca81116e9e", "3d7bbe30c57eb4194de61956b9d05995feb5a4d9762a56d9ea3555647c23edc2"],
    ),
    "gr42_over_z4": (
        {"elements": 65536, "units": 20736, "unit_cocycles": 24, "cosickles": 364, "almost_invertible": 48, "coassociative": 364},
        ["f92b8d1e41e43e69a79bdfadd8970073d972d30590600d93c1386b6fa25ba6d2", "28c98a22fe9e127aaf0a083650d3867a4c4926708eb4d0937a2b746c74f35020", "7ebbb8f8cb67f62ad12222925516f08f46cb6afa957bd38f9fa14371183dc255", "d20208050bffbaf0bbb0258f4c515eb008ef935d1bec3c949e557cb7bfc7bbe1", "7ebbb8f8cb67f62ad12222925516f08f46cb6afa957bd38f9fa14371183dc255"],
    ),
    "gf9_over_f3": (
        {"elements": 6561, "units": 4096, "unit_cocycles": 16, "cosickles": 57, "almost_invertible": 24, "coassociative": 57},
        ["cc3503934479e63719f7a9353b144b74461b92ce9a23aad1b6239fe3d83fa37e", "21447235b86bd56202c610e5fb9ab8e96ac690a1eec7a9f29be9bb94248c75bd", "e91835372f4e0b6a4d26342cf95a537cbd5db8e246a87dcbcf76552de33ee32d", "54ac9456f3eeb1a7e09d9f53bba2ec079be086528488a640fe190cfc2e317f24", "e91835372f4e0b6a4d26342cf95a537cbd5db8e246a87dcbcf76552de33ee32d"],
    ),
    "f4f4_over_f4": (
        {"elements": 65536, "units": 6561, "unit_cocycles": 27, "cosickles": 247, "almost_invertible": 36, "coassociative": 247},
        ["067335c802b2cdcdab6f04d6cdeba08dcebd45cc54fa419b3bea2798d99f5dd8", "f199a1390f7d18d11b44b891019026ba986232249cc49930f9387d68b8d4a155", "68ca72dc00ff5812a56e01713728caed54e1ebef0c4e90128273718a07430d62", "89074d33e8bf4fe33f92fb88d96dd46b1014509879d5c17c00ea18fee52becaf", "68ca72dc00ff5812a56e01713728caed54e1ebef0c4e90128273718a07430d62"],
    ),
    "gf25_over_f5": (
        {"elements": 390625, "units": 331776, "unit_cocycles": 96, "cosickles": 217, "almost_invertible": 120, "coassociative": 217},
        ["fed0cbc7ee0a916c4db36f4e9f485f570e39f4911e2cbc92169fd0ee4619b7c9", "1b03d1a439a5ac9943efe2f9d59f573f0fe0c9c2e9897c1d82d6ce9ad7d017ba", "e4a668ca876ed1d61133bb4a30397adbc769325ee1226526512ed4d0fd715bf3", "9a84b87fb61a4fafe32a2a7ce8021841cf8afa4bbb3acc7baa6bf201ea8b2794", "e4a668ca876ed1d61133bb4a30397adbc769325ee1226526512ed4d0fd715bf3"],
    ),
}


def mask_digest(mask: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(mask, dtype=bool).tobytes()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("name", list(CENSUS_CASES))
def test_census_counts_and_mask_digests(name, jobs):
    census = classify_all(CENSUS_CASES[name](), jobs=jobs)
    counts, digests = CENSUS_DIGESTS[name]
    assert census.counts == counts
    assert [mask_digest(getattr(census, m)) for m in MASKS] == digests
