"""Job-file parsing, command dispatch, exit codes, deterministic reports."""

import io
import json
import time
from unittest import mock

import pytest

from corings import algebras, cli
from corings.cli import EXIT_CAP, EXIT_INPUT, EXIT_MATH, EXIT_OK, JobSpecError, parse_job, run
from tests.test_acceptance import ACCEPTANCE_JOBS

F2 = {"modulus": 2, "kind": "quotient", "poly": [0, 1]}
F4 = {"modulus": 2, "kind": "quotient", "poly": [1, 1, 1]}
F2X2 = {"modulus": 2, "kind": "quotient", "poly": [0, 1, 1]}

F4_EXT = {
    "base": "F2",
    "top": "F4",
    "eta": [[1, 0]],
    "basis": [[1, 0], [0, 1]],
}
F2X2_EXT = {
    "base": "F2",
    "top": F2X2,
    "eta": [[1, 0]],
    "basis": [[1, 0], [0, 1]],
}
F2_EXT = {"base": "F2", "top": "F2", "eta": [[1]], "basis": [[1]]}  # degree 1


def job(command, extension=F4_EXT, **rings):
    return {
        "rings": {"F2": F2, "F4": F4, **rings},
        "extension": extension,
        "command": command,
    }


def run_cli(tmp_path, doc, *args):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    buf = io.BytesIO()
    code = run([str(path), *args], stdout=buf)
    return code, buf.getvalue()


def test_parse_minimal_h2_job():
    spec = parse_job(json.dumps(job({"name": "h2"})))
    assert spec.command == "h2"
    assert spec.extension.degree == 2


def test_parse_reports_wrong_twist_length():
    with pytest.raises(JobSpecError) as err:
        parse_job(json.dumps(job({"name": "cocycle-check", "twist": [1, 0, 0]})))
    assert "expected 8" in str(err.value)
    assert "command.twist" in str(err.value)


def test_parse_unknown_command_lists_valid_ones():
    with pytest.raises(JobSpecError) as err:
        parse_job(json.dumps(job({"name": "frobnicate"})))
    assert "h2" in str(err.value) and "classify" in str(err.value)


def test_parse_unresolved_reference():
    doc = job({"name": "h2"})
    doc["extension"] = dict(doc["extension"], top="NOPE")
    with pytest.raises(JobSpecError) as err:
        parse_job(json.dumps(doc))
    assert "unresolved" in str(err.value)


def test_parse_syntax_error_has_location():
    with pytest.raises(JobSpecError) as err:
        parse_job("{\n  broken\n}")
    assert "line 2" in str(err.value)


def test_h2_report(tmp_path):
    code, out = run_cli(tmp_path, job({"name": "h2"}), "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    res = rep["result"]
    assert (res["z2_order"], res["b2_order"], res["h2_order"]) == (3, 3, 1)
    assert rep["version"] and rep["input_digest"]


def test_units_report(tmp_path):
    code, out = run_cli(tmp_path, job({"name": "units", "level": 2}), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["count"] == 9


@pytest.mark.parametrize(
    "extension,level,line",
    [
        (F4_EXT, 10, "S^⊗10 over Z/2[x]/(x) has rank 1024, cap is 600"),
        (F4_EXT, 14000, f"S^⊗14000 over Z/2[x]/(x) has rank {2**14000}, cap is 600"),
        (F4_EXT, 14300, "S^⊗14300 over Z/2[x]/(x) has rank 2^14300, cap is 600"),
        (F4_EXT, 10**30, f"S^⊗{10**30} over Z/2[x]/(x) has rank 2^{10**30}, cap is 600"),
        (F2_EXT, 64, "S^⊗64 over Z/2[x]/(x) has 64 slots, cap is 63"),
        (F2_EXT, 2**40, f"S^⊗{2**40} over Z/2[x]/(x) has {2**40} slots, cap is 63"),
        (F2_EXT, 10**30, f"S^⊗{10**30} over Z/2[x]/(x) has {10**30} slots, cap is 63"),
    ],
    ids=["d2-10", "d2-14000", "d2-14300", "d2-1e30", "d1-64", "d1-2^40", "d1-1e30"],
)
def test_units_level_refusals(tmp_path, capsys, extension, level, line):
    """Every refused level exits 3 at once with one line from tensor_power: the
    exact rank while Python prints it (4300 digits), else the power."""
    start = time.perf_counter()
    code, out = run_cli(tmp_path, job({"name": "units", "level": level}, extension=extension))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CAP and out == b""
    assert capsys.readouterr().err == f"error: resource cap: {line}\n"


def test_units_at_the_last_level_of_a_degree_one_extension(tmp_path):
    code, out = run_cli(tmp_path, job({"name": "units", "level": 63}, extension=F2_EXT), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["units"] == [[1]]


@pytest.mark.parametrize("name,extension,command", ACCEPTANCE_JOBS, ids=[j[0] for j in ACCEPTANCE_JOBS])
def test_each_job_parses_its_twist_once(tmp_path, name, extension, command):
    """parse_job parses the twist (and that of command.other) once; the runners read it from the spec."""
    with mock.patch.object(cli, "_twist_param", wraps=cli._twist_param) as spy:
        code, _ = run_cli(tmp_path, job(command, extension=extension))
    assert code == EXIT_OK
    assert spy.call_count == (2 if name == "compare" else int("twist" in command))


def test_cocycle_check_passes_and_fails(tmp_path):
    ok = {"name": "cocycle-check", "twist": [1, 0, 0, 0, 0, 0, 0, 0]}
    code, out = run_cli(tmp_path, job(ok), "--format", "json")
    assert code == EXIT_OK
    bad = {"name": "cocycle-check", "twist": [0, 1, 0, 0, 0, 0, 0, 0]}  # a⊗1⊗1
    code, out = run_cli(tmp_path, job(bad), "--format", "json")
    assert code == EXIT_MATH
    assert json.loads(out)["result"]["is_cocycle"] is False


def test_normalize_command(tmp_path):
    doc = job({"name": "normalize", "twist": [0, 0, 1, 0, 0, 0, 0, 0]})  # 1⊗a⊗1
    code, out = run_cli(tmp_path, doc, "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert res["normalized"] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert res["norm_after"] == [1, 0]


def test_normalize_non_cocycle_is_math_error(tmp_path):
    doc = job({"name": "normalize", "twist": [0, 1, 0, 0, 0, 0, 0, 0]})
    code, _ = run_cli(tmp_path, doc, "--format", "json")
    assert code == EXIT_MATH


def test_twist_report(tmp_path):
    doc = job({"name": "twist", "twist": [0, 0, 1, 0, 0, 0, 0, 0]})
    code, out = run_cli(tmp_path, doc, "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert res["azumaya"] and res["cosickle_condition"] == "u1*u3 == u2*u4"


def test_classify_census_columns(tmp_path):
    doc = job({"name": "classify"}, extension=F2X2_EXT)
    code, out = run_cli(tmp_path, doc)
    assert code == EXIT_OK
    text = out.decode()
    assert "element | unit? | cocycle? | cosickle? | almost-inv?" in text
    code, out = run_cli(tmp_path, doc, "--format", "json")
    res = json.loads(out)["result"]
    assert res["counts"]["elements"] == 256
    assert res["counts"]["unit_cocycles"] == 1


def test_gamma_verify(tmp_path):
    doc = job({"name": "gamma-verify", "twist": [1, 0, 0, 0, 0, 0, 0, 0]})
    code, out = run_cli(tmp_path, doc, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["ok"] is True


def test_dual_algebra_table(tmp_path):
    doc = job({"name": "dual-algebra", "twist": [1, 0, 0, 0, 0, 0, 0, 0], "side": "right"})
    code, out = run_cli(tmp_path, doc, "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert res["dimension"] == 4 and len(res["table"]) == 16


def test_azumaya_check_and_control(tmp_path):
    """Each check builds the enveloping matrix once, and reports its side dim^2 · base rank."""
    for command, want_code, want_size in (
        ({"name": "azumaya-check", "twist": [1, 0, 0, 0, 0, 0, 0, 0]}, EXIT_OK, 16),
        ({"name": "azumaya-check", "algebra": "top"}, EXIT_MATH, 4),
    ):
        env = mock.Mock(wraps=algebras.enveloping_matrix)
        # counted through the library and through any name the CLI might import
        with mock.patch.object(algebras, "enveloping_matrix", env), \
                mock.patch.object(cli, "enveloping_matrix", env, create=True):
            code, out = run_cli(tmp_path, job(command), "--format", "json")
        res = json.loads(out)["result"]
        assert (code, res["azumaya"], res["enveloping_matrix_size"]) == (want_code, want_code == EXIT_OK, want_size)
        assert env.call_count == 1


def test_compare_command(tmp_path):
    doc = job(
        {
            "name": "compare",
            "twist": [0, 0, 1, 0, 0, 0, 0, 0],
            "other": {
                "extension": F2X2_EXT,
                "twist": [1, 0, 0, 0, 0, 0, 0, 0],
            },
        }
    )
    code, out = run_cli(tmp_path, doc, "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert res["equivalent"] is True and res["witness"] != []


def test_compare_empty_witness_is_empty_array(tmp_path):
    """The witness field is always present (an empty array when absent)."""
    doc = job(
        {
            "name": "compare",
            "twist": [1, 0, 0, 0, 0, 0, 0, 0],
            "other": {"extension": F4_EXT, "twist": [1, 0, 0, 0, 0, 0, 0, 0]},
        }
    )
    code, out = run_cli(tmp_path, doc, "--format", "json")
    assert code == EXIT_OK
    assert "witness" in json.loads(out)["result"]


F2XF2_EXT = {
    "base": "F2",
    "top": {"modulus": 2, "kind": "product", "factors": ["F2", "F2"]},
    "eta": [[1, 1]],
    "basis": [[1, 0], [0, 1]],
}


def test_product_ring_kind(tmp_path):
    """(F2×F2)/F2 from a "product" definition: |H^2| = 1, and S⊗S = F2^4 has one unit."""
    code, out = run_cli(tmp_path, job({"name": "h2"}, extension=F2XF2_EXT), "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert (res["z2_order"], res["b2_order"], res["h2_order"]) == (1, 1, 1)
    code, out = run_cli(tmp_path, job({"name": "units", "level": 2}, extension=F2XF2_EXT), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["count"] == 1


@pytest.mark.parametrize(
    "factors",
    [["F2"], ["F2", {"modulus": 3, "kind": "quotient", "poly": [0, 1]}]],
    ids=["one-factor", "moduli-2-and-3"],
)
def test_bad_product_factors_are_input_errors(tmp_path, capsys, factors):
    top = dict(F2XF2_EXT["top"], factors=factors)
    code, out = run_cli(tmp_path, job({"name": "h2"}, extension=dict(F2XF2_EXT, top=top)))
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == b""
    assert "error: extension.top.factors:" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_out_writes_the_bytes_stdout_gets(tmp_path, fmt):
    """A passing h2 job and a failing cocycle check (exit 1 still writes its report)."""
    bad = {"name": "cocycle-check", "twist": [0, 1, 0, 0, 0, 0, 0, 0]}
    for doc, want in ((job({"name": "h2"}), EXIT_OK), (job(bad), EXIT_MATH)):
        code, expected = run_cli(tmp_path, doc, "--format", fmt)
        target = tmp_path / "report.out"
        code_out, stdout = run_cli(tmp_path, doc, "--format", fmt, "--out", str(target))
        assert code == code_out == want and stdout == b""
        assert target.read_bytes() == expected and expected


@pytest.mark.parametrize(
    "command",
    [
        {"name": "azumaya-check", "algebra": "tpo", "twist": [1, 0, 0, 0, 0, 0, 0, 0]},
        {"name": "azumaya-check", "algebra": "tpo"},
        {"name": "azumaya-check", "algebra": 1},
    ],
    ids=["typo-with-twist", "typo-without-twist", "non-string"],
)
def test_bad_algebra_is_input_error(tmp_path, capsys, command):
    """"top" is the only algebra; any other value is refused at its own path,
    with or without a twist next to it."""
    code, out = run_cli(tmp_path, job(command))
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == b""
    assert "error: command.algebra:" in err and "Traceback" not in err


def test_cap_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, job({"name": "h2"}), "--cap", "2")
    assert code == EXIT_CAP


def test_input_error_exit_code(tmp_path):
    doc = job({"name": "cocycle-check", "twist": [1, 0]})
    code, _ = run_cli(tmp_path, doc)
    assert code == EXIT_INPUT


@pytest.mark.parametrize("modulus", [0, True, 2**31 - 1], ids=["zero", "bool", "above-bound"])
def test_bad_modulus_is_input_error(tmp_path, capsys, modulus):
    ring = {"modulus": modulus, "kind": "quotient", "poly": [0, 1]}
    code, out = run_cli(tmp_path, job({"name": "h2"}, R=ring))
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == b""
    assert "rings.R.modulus" in err and "Traceback" not in err


def test_ring_above_rank_cap_is_input_error(tmp_path, capsys):
    """A degree-601 quotient is refused before its 601^3 table is allocated."""
    ring = {"modulus": 2, "kind": "quotient", "poly": [1] + [0] * 600 + [1]}
    code, out = run_cli(tmp_path, job({"name": "h2"}, R=ring))
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == b""
    assert "error: rings.R.poly:" in err and "rank cap" in err and "Traceback" not in err


def test_non_multiplicative_eta_above_rank_100_is_input_error(tmp_path, capsys):
    """η of F2[x]/(x^101 + x + 1) over itself with the images of e1 and e2
    swapped is unital and bijective but not multiplicative.  η is checked at
    every size, so the job exits 2 at extension.eta within 5 s; under the
    former rule (no multiplicativity above source × target rank 10^4) it ran
    and exited 0."""
    one = [1] + [0] * 100
    eta = [one[-i:] + one[:-i] for i in range(101)]  # eta[i] = e_i
    eta[1], eta[2] = eta[2], eta[1]
    ring = {"modulus": 2, "kind": "quotient", "poly": [1, 1] + [0] * 99 + [1]}
    extension = {"base": "R", "top": "R", "eta": eta, "basis": [one]}
    start = time.perf_counter()
    code, out = run_cli(tmp_path, job({"name": "cocycle-check", "twist": one}, extension, R=ring))
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == b""
    assert err.splitlines() == ["error: extension.eta: map is not multiplicative"]
    assert elapsed < 5


def _twist_job(twist):
    return job({"name": "cocycle-check", "twist": twist})


def _compare_job(other_twist):
    other = {"extension": F4_EXT, "twist": other_twist}
    return job({"name": "compare", "twist": [1, 0, 0, 0, 0, 0, 0, 0], "other": other})


def _with_ring_poly(poly):
    return job({"name": "h2"}, F4=dict(F4, poly=poly))


def _with_extension(**fields):
    return job({"name": "h2"}, extension=dict(F4_EXT, **fields))


@pytest.mark.parametrize(
    "doc, path",
    [
        (dict(job({"name": "h2"}), rings=[]), "rings"),
        (_twist_job(["a", 0, 0, 0, 0, 0, 0, 0]), "command.twist[0]"),
        (_twist_job([[1], 0, 0, 0, 0, 0, 0, 0]), "command.twist[0]"),
        (_twist_job([1, 0, 0, 1.9, 0, 0, 0, 0]), "command.twist[3]"),
        (_twist_job([True, 0, 0, 0, 0, 0, 0, 0]), "command.twist[0]"),
        (_compare_job([1, 0, 0, 0, 0, 0, 0.5, 0]), "command.other.twist[6]"),
        (_with_ring_poly([1, 1, 1.0]), "rings.F4.poly[2]"),
        (_with_ring_poly([1, True, 1]), "rings.F4.poly[1]"),
        (_with_extension(eta=[[1.0, 0]]), "extension.eta[0][0]"),
        (_with_extension(basis=[[1, 0], [0, 1.5]]), "extension.basis[1][1]"),
        (_with_extension(basis=[[1, 0], [0]]), "extension.basis"),
        (job({"name": "h2", "cap": True}), "command.cap"),
    ],
    ids=[
        "rings-array",
        "twist-string",
        "twist-nested",
        "twist-float",
        "twist-bool",
        "other-twist-float",
        "poly-float",
        "poly-bool",
        "eta-float",
        "basis-float",
        "basis-ragged",
        "cap-bool",
    ],
)
def test_non_integer_arrays_are_input_errors(tmp_path, capsys, doc, path):
    code, out = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == b""
    assert f"error: {path}:" in err and "Traceback" not in err


def test_reports_are_deterministic(tmp_path):
    doc = job({"name": "h2"})
    outputs = set()
    for fmt in ("text", "json"):
        a = run_cli(tmp_path, doc, "--format", fmt)
        b = run_cli(tmp_path, doc, "--format", fmt)
        j4 = run_cli(tmp_path, doc, "--format", fmt, "--jobs", "4")
        assert a == b == j4
        outputs.add(a[1])
    assert len(outputs) == 2


def test_console_entry_point(tmp_path):
    """The installed `corings` script runs a job end to end."""
    import shutil
    import subprocess

    exe = shutil.which("corings")
    if exe is None:
        pytest.skip("package not installed with console scripts")
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job({"name": "h2"})))
    proc = subprocess.run([exe, str(path), "--format", "json"], capture_output=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["result"]["h2_order"] == 1


def test_python_dash_m_entry_point(tmp_path):
    """`python -m corings` runs a job end to end from a source checkout."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    doc = job({"name": "h2"})
    code, expected = run_cli(tmp_path, doc, "--format", "json")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "corings", str(tmp_path / "job.json"), "--format", "json"],
        capture_output=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == code == EXIT_OK
    assert proc.stdout == expected
    assert json.loads(proc.stdout)["result"]["h2_order"] == 1


FOOTPRINT = """
import contextlib, io, json, sys

watched = ("argparse", "gettext", "locale")
before = set(sys.modules)
loaded = lambda: sorted(m for m in watched if m in sys.modules and m not in before)
import corings.cli

after_import = loaded()
code = corings.cli.run([sys.argv[1]], stdout=io.BytesIO())
after_job = loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    corings.cli.run(["--help"])
print(json.dumps([after_import, code, after_job, loaded()]))
"""


def test_jobs_load_no_argparse():
    """In a fresh interpreter neither `import corings.cli` nor a job loads
    argparse, gettext or locale; `--help` loads argparse.  Modules that were
    loaded before the import (by `site`, say) do not count."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    job_file = root / "perfbench" / "jobs" / "h2-f4.json"
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(job_file)], capture_output=True, env=env, check=True)
    after_import, code, after_job, after_help = json.loads(proc.stdout)
    assert code == EXIT_OK
    assert after_import == after_job == []
    assert "argparse" in after_help


def test_integer_past_the_digit_limit_is_input_error(tmp_path, capsys):
    """A 5001-digit modulus exits 2 with one line, at `$` where Python limits
    the digits it reads, else at the modulus; never with the advice to raise
    the limit."""
    doc = job({"name": "h2"}, G={"modulus": "N", "kind": "quotient", "poly": [0, 1]})
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc).replace('"N"', "1" + "0" * 5000))
    code = run([str(path)], stdout=io.BytesIO())
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and err.count("\n") == 1
    assert err.startswith(("error: $: ", "error: rings.G.modulus: ")) and "set_int_max_str_digits" not in err


def test_job_file_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_bytes(b"\xff\xfe{}")
    code = run([str(path)], stdout=io.BytesIO())
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "error: $: job file is not valid UTF-8 (byte 0: invalid start byte)\n"


@pytest.mark.parametrize(
    "doc",
    [
        '{"rings": {"A": ' + "[" * 100000 + "]" * 100000 + "}}",
        json.dumps(job({"name": "h2"}, A={"modulus": 2, "kind": "quotient", "poly": "P"})).replace(
            '"P"', "[" * 5000 + "]" * 5000
        ),
    ],
    ids=["rings-100000-deep", "poly-5000-deep"],
)
def test_json_nested_past_the_recursion_limit_is_input_error(tmp_path, capsys, doc):
    """One fixed line at `$`: Python's own wording differs between versions."""
    path = tmp_path / "job.json"
    path.write_text(doc)
    code = run([str(path)], stdout=io.BytesIO())
    assert code == EXIT_INPUT and capsys.readouterr().err == "error: $: JSON nested too deeply\n"


@pytest.mark.parametrize("target", [".", "missing/report.txt"], ids=["directory", "missing-parent"])
def test_unwritable_out_is_input_error(tmp_path, capsys, target):
    code, out = run_cli(tmp_path, job({"name": "h2"}), "--out", str(tmp_path / target))
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == b""
    assert err.startswith("error: [Errno ") and err.count("\n") == 1 and "Traceback" not in err


def test_jobs_below_one_is_input_error(tmp_path, capsys):
    code, out = run_cli(tmp_path, job({"name": "h2"}), "--jobs", "0")
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == b""
    assert "--jobs" in err and "Traceback" not in err
