"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from corings import zmod
from corings.algebras import (
    DescentAlgebra,
    TwistedAlgebra,
    algebra_from_extension,
    enveloping_matrix,
    gamma_map,
    is_azumaya_algebra,
)
from corings.amitsur import (
    TwistElement,
    base_change_witness,
    check_norm_identities,
    cocycle_mask,
    compute_h2,
    delta1,
    delta2,
    normalize,
)
from corings.classify import brauer_class, classify_all
from corings.coring import (
    canonical_coring,
    check_coassociative,
    coring_tensor,
    dual_coring,
    twisted_coring,
)
from corings.rings import enumerate_units


def cocycle_rows(ext):
    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    return units3[cocycle_mask(ext, units3)]


def ok(num, text):
    print(f"[criterion {num}] {text}: PASS")


def test_criterion_1_f4_cohomology(f4_over_f2):
    """F4/F2: 9 units at level 2, 81 at level 3, |Z^2| = |B^2| = 3, H^2 = 1."""
    ext = f4_over_f2
    start = time.perf_counter()
    units2 = enumerate_units(ext.tensor_power(2).ring, as_array=True)
    units3 = enumerate_units(ext.tensor_power(3).ring, as_array=True)
    g = compute_h2(ext)
    elapsed = time.perf_counter() - start
    assert len(units2) == 9
    assert len(units3) == 81
    assert len(g.z2) == 3 and len(g.b2) == 3
    assert g.order == 1
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(1, f"F4/F2 cohomology (9, 81, 3, 3, trivial) in {elapsed * 1000:.0f} ms")


def test_criterion_2_partition_sweep(f2x2_over_f2):
    """All 256 twists over F2xF2/F2: coassociative = cosickle, counital =
    almost invertible, Azumaya = unit cocycle; zero discrepancies."""
    ext = f2x2_over_f2
    start = time.perf_counter()
    census = classify_all(ext)
    elapsed = time.perf_counter() - start
    assert len(census.elements) == 256
    assert (census.is_coassociative == census.is_cosickle).all()
    assert census.admits_counit is not None
    assert (census.admits_counit == census.is_almost_invertible).all()
    assert (census.is_cocycle == (census.is_unit & census.is_cosickle)).all()
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    # independent per-element route: the axioms of each individual coring
    from corings.coring import is_azumaya

    for row, cs, ai, az in zip(
        census.elements, census.is_cosickle, census.is_almost_invertible, census.is_cocycle
    ):
        c = twisted_coring(ext, row)
        assert check_coassociative(c) == cs
        assert (c.counit is not None) == ai
        assert is_azumaya(c) == az
    ok(2, f"256-element partition sweep, zero discrepancies, in {elapsed * 1000:.0f} ms")


def test_criterion_3_delta_norm_normalize(f4_over_f2, gr42_over_z4):
    """delta∘delta = 1 on all units of S^⊗2; norm identities and verified
    normalization for every cocycle, over F4/F2 and GR(4,2)/Z4."""
    failures = 0
    for ext in (f4_over_f2, gr42_over_z4):
        t3 = ext.tensor_power(3).ring
        t4 = ext.tensor_power(4).ring
        units2 = enumerate_units(ext.tensor_power(2).ring, as_array=True)
        for v in units2:
            if (delta2(ext, delta1(ext, v)) != t4.one).any():
                failures += 1
        for row in cocycle_rows(ext):
            tw = TwistElement(ext, row)
            if not check_norm_identities(tw):
                failures += 1
            tw2, w = normalize(tw)
            if not tw2.norm.is_one():
                failures += 1
            if (t3.mul_vec(row, delta1(ext, w)) != tw2.u.coeffs).any():
                failures += 1
            if not tw2.is_cocycle:
                failures += 1
    assert failures == 0
    ok(3, "delta∘delta = 1, norm identities, verified normalization; zero failures")


def test_criterion_4_gamma_isomorphism(f4_over_f2):
    """gamma: End_R(S)_u -> A(u) is a verified unital isomorphism with exact
    two-sided inverse and dim_R A(u) = 4, for each cocycle over F4/F2."""
    ext = f4_over_f2
    start = time.perf_counter()
    rows = cocycle_rows(ext)
    assert len(rows) == 3
    for row in rows:
        g = gamma_map(TwistElement(ext, row))
        assert g.injective and g.image_is_descent_algebra
        assert g.multiplicative and g.unital
        assert g.two_sided_inverse  # both composites are exact identities
        assert g.descent_rank == 4
        alg = DescentAlgebra(ext, TwistElement(ext, row))
        assert alg.rank_over_base == 4 and len(alg.solution_basis) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(4, f"gamma isomorphism and dim A(u) = 4 for 3 cocycles in {elapsed * 1000:.0f} ms")


def test_criterion_5_enveloping_map(f4_over_f2):
    """The enveloping map is bijective (rank 16) for End_R(S)_u at every
    cocycle, and not bijective for the commutative control F4 over F2."""
    ext = f4_over_f2
    for row in cocycle_rows(ext):
        alg = TwistedAlgebra(ext, TwistElement(ext, row), "right").algebra()
        env = enveloping_matrix(alg)
        assert env.shape == (16, 16)
        assert zmod.is_invertible(env, 2)
        assert is_azumaya_algebra(alg)
    control = algebra_from_extension(ext)
    assert not is_azumaya_algebra(control)
    ok(5, "enveloping map bijective for End(S)_u (rank 16), fails for commutative F4")


def test_criterion_6_monoidal_duality_base_change(f4_over_f2, gr42_over_z4):
    """twist(C_u ⊗ C_v) = uv, class(u)·class(u^{-1}) = 1, unit object laws,
    and the base-change witness identity u_4 = u_1 u_2^{-1} u_3."""
    for ext in (f4_over_f2, gr42_over_z4):
        rows = cocycle_rows(ext)
        t3 = ext.tensor_power(3).ring
        unit_obj = canonical_coring(ext)
        for x in rows:
            cx = twisted_coring(ext, x)
            assert coring_tensor(cx, unit_obj).twist.u == cx.twist.u
            assert coring_tensor(unit_obj, cx).twist.u == cx.twist.u
            assert coring_tensor(cx, dual_coring(cx)).twist.u.is_one()
            cls = brauer_class(cx)
            assert (cls * cls.inverse()).is_identity()
            for y in rows:
                prod = coring_tensor(cx, twisted_coring(ext, y))
                assert (prod.twist.u.coeffs == t3.mul_vec(x, y)).all()
            bc = base_change_witness(TwistElement(ext, x))
            assert bc.verified
    ok(6, "monoidal and duality laws plus base-change witnesses, exhaustive at scale")


def test_criterion_7_coassociativity_consistency(f2x2_over_f2, gr42_over_z4):
    """Direct triple-coproduct test agrees with u_1 u_3 = u_2 u_4 on all 256
    twists over F2xF2/F2 and on 120 seeded pseudo-random twists over
    GR(4,2)/Z4."""
    census = classify_all(f2x2_over_f2, counit_oracle=False)
    assert (census.is_coassociative == census.is_cosickle).all()
    gr = gr42_over_z4
    rng = np.random.default_rng(20260809)
    t3 = gr.tensor_power(3)
    checked = 0
    for _ in range(120):
        row = rng.integers(0, 4, size=t3.rank)
        c = twisted_coring(gr, row)
        assert check_coassociative(c) == TwistElement(gr, row).is_cosickle
        checked += 1
    assert checked >= 100
    ok(7, "direct coassociativity test matches the element identity (256 + 120 twists)")


F2 = {"modulus": 2, "kind": "quotient", "poly": [0, 1]}
F4 = {"modulus": 2, "kind": "quotient", "poly": [1, 1, 1]}
F2X2 = {"modulus": 2, "kind": "quotient", "poly": [0, 1, 1]}
SIMPLE = {"eta": [[1, 0]], "basis": [[1, 0], [0, 1]]}
F4_EXT = {"base": "F2", "top": "F4", **SIMPLE}
F2X2_EXT = {"base": "F2", "top": F2X2, **SIMPLE}
ONE8 = [1, 0, 0, 0, 0, 0, 0, 0]
COB8 = [0, 0, 1, 0, 0, 0, 0, 0]  # 1⊗a⊗1 over F4/F2

ACCEPTANCE_JOBS = [
    ("h2-f4", F4_EXT, {"name": "h2"}),
    ("units-f4-level3", F4_EXT, {"name": "units", "level": 3}),
    ("classify-f2x2", F2X2_EXT, {"name": "classify"}),
    ("cocycle-check", F4_EXT, {"name": "cocycle-check", "twist": COB8}),
    ("normalize", F4_EXT, {"name": "normalize", "twist": COB8}),
    ("twist-report", F4_EXT, {"name": "twist", "twist": COB8}),
    ("dual-algebra", F4_EXT, {"name": "dual-algebra", "twist": COB8, "side": "right"}),
    ("gamma-verify", F4_EXT, {"name": "gamma-verify", "twist": COB8}),
    ("azumaya-check", F4_EXT, {"name": "azumaya-check", "twist": COB8}),
    (
        "compare",
        F4_EXT,
        {"name": "compare", "twist": COB8, "other": {"extension": F2X2_EXT, "twist": ONE8}},
    ),
]


def test_criterion_8_cli_determinism(tmp_path):
    """Every CLI job reproduces byte-identical reports across repeated runs
    and across --jobs 1 vs --jobs 4, in both output formats."""
    from corings.cli import run

    for name, extension, command in ACCEPTANCE_JOBS:
        doc = {"rings": {"F2": F2, "F4": F4}, "extension": extension, "command": command}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for fmt in ("text", "json"):
            outputs = []
            codes = []
            for extra in ([], [], ["--jobs", "4"]):
                buf = io.BytesIO()
                codes.append(run([str(path), "--format", fmt, *extra], stdout=buf))
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1] == outputs[2], f"{name} ({fmt}) not reproducible"
            assert codes[0] == codes[1] == codes[2] == 0, f"{name} exit code {codes}"
            assert outputs[0], f"{name} produced no output"
    ok(8, f"{len(ACCEPTANCE_JOBS)} CLI jobs byte-identical across runs and --jobs 1 vs 4")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,extension,command", ACCEPTANCE_JOBS, ids=[j[0] for j in ACCEPTANCE_JOBS])
def test_golden_reports(tmp_path, name, extension, command):
    """Each acceptance job reproduces its committed text and JSON reports
    byte for byte; tests/golden/ was generated by the CLI from these jobs."""
    from corings.cli import run

    doc = {"rings": {"F2": F2, "F4": F4}, "extension": extension, "command": command}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    for fmt, suffix in (("text", "txt"), ("json", "json")):
        buf = io.BytesIO()
        assert run([str(path), "--format", fmt], stdout=buf) == 0
        golden = (GOLDEN / f"{name}.{suffix}").read_bytes()
        assert buf.getvalue() == golden, f"{name} ({fmt}) differs from its golden report"


# h2 beyond F4/F2, each job with its own rings: three reports (GF(25)/F5 has
# 96 rows of Z^2) and the resource-cap refusal of GF(8)/F2, whose S^⊗3 has
# 8^9 elements.  Kept apart from ACCEPTANCE_JOBS, which the CLI and fuzz
# tests reuse over F2 and F4 only.
def _field(p, poly):
    return {"modulus": p, "kind": "quotient", "poly": poly}


def _simple(degree):
    return {"eta": [[1] + [0] * (degree - 1)], "basis": np.eye(degree, dtype=int).tolist()}


H2_JOBS = [
    ("h2-gf9", {"F3": _field(3, [0, 1]), "F9": _field(3, [1, 0, 1])}, {"base": "F3", "top": "F9", **_simple(2)}),
    ("h2-gr42", {"Z4": _field(4, [0, 1]), "GR42": _field(4, [1, 1, 1])}, {"base": "Z4", "top": "GR42", **_simple(2)}),
    ("h2-gf25", {"F5": _field(5, [0, 1]), "F25": _field(5, [2, 0, 1])}, {"base": "F5", "top": "F25", **_simple(2)}),
    ("h2-gf8", {"F2": F2, "F8": _field(2, [1, 1, 0, 1])}, {"base": "F2", "top": "F8", **_simple(3)}),
]


@pytest.mark.parametrize("name,rings,extension", H2_JOBS, ids=[j[0] for j in H2_JOBS])
@pytest.mark.parametrize("jobs", ["1", "4"])
def test_golden_h2_reports(tmp_path, name, rings, extension, jobs):
    """Each h2 job reproduces its committed text and JSON reports byte for
    byte, or, where S^⊗3 exceeds the cap, its exit code 3 and stderr line."""
    from corings.cli import EXIT_CAP, EXIT_OK, run

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"rings": rings, "extension": extension, "command": {"name": "h2"}}))
    refused = (GOLDEN / f"{name}.stderr").exists()
    for fmt, suffix in (("text", "txt"), ("json", "json")):
        buf, err = io.BytesIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([str(path), "--format", fmt, "--jobs", jobs], stdout=buf)
        if refused:
            assert (code, buf.getvalue()) == (EXIT_CAP, b"")
            assert err.getvalue() == (GOLDEN / f"{name}.stderr").read_text()
        else:
            assert (code, err.getvalue()) == (EXIT_OK, "")
            golden = (GOLDEN / f"{name}.{suffix}").read_bytes()
            assert buf.getvalue() == golden, f"{name} ({fmt}) differs from its golden report"


# classify over GF(9)/F3 and GR(4,2)/Z4: one row per element of S^⊗3 (3^8 and
# 4^8), so the reports run to 0.2-17 MB and only their SHA-256 digests are
# committed, per format.  Tier-1 runs the GF(9)/F3 job; CI runs both through
# the installed script.
CLASSIFY_JOBS = [
    ("classify-gf9", {"F3": _field(3, [0, 1]), "F9": _field(3, [1, 0, 1])}, {"base": "F3", "top": "F9", **_simple(2)}),
    ("classify-gr42", {"Z4": _field(4, [0, 1]), "GR42": _field(4, [1, 1, 1])}, {"base": "Z4", "top": "GR42", **_simple(2)}),
]

CLASSIFY_DIGESTS = {
    "classify-gf9": {
        "text": "a24649a60e0a4cfe97df6786bada8b589304c008402f136acc792f67078a4594",
        "json": "3f47f2829a23640691d52136760be4a9cb4bf849f1794d8138db762bb054abff",
    },
    "classify-gr42": {
        "text": "f4fba2fd21cecb915993bd56c56462d63ba6095f7dffee497d7bb754f89a15ec",
        "json": "263c123be70debf0fa438c4e074b6483f007e538346d0c034ff3d58c9fe3a0b2",
    },
}


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_classify_report_digests(tmp_path, jobs):
    """The classify job over GF(9)/F3 reproduces the SHA-256 of its committed
    text and JSON reports."""
    from corings.cli import EXIT_OK, run

    name, rings, extension = CLASSIFY_JOBS[0]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"rings": rings, "extension": extension, "command": {"name": "classify"}}))
    for fmt in ("text", "json"):
        buf = io.BytesIO()
        assert run([str(path), "--format", fmt, "--jobs", jobs], stdout=buf) == EXIT_OK
        assert hashlib.sha256(buf.getvalue()).hexdigest() == CLASSIFY_DIGESTS[name][fmt], f"{name} ({fmt})"
