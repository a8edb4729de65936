"""The CLI's direct reader of plain command lines against argparse, its oracle.

`cli._read_argv` reads one job file and `--cap`, `--jobs`, `--format` and
`--out` as `--opt value` pairs and leaves every other line to argparse.
Each command line runs twice, through `cli.run` and through
`tests.conftest.argparse_run`, in a directory holding job files named
"a b" (an h2 job, which `--cap 3` or `--cap 5` stops with exit 3) and "-"
(a cocycle check of the zero twist, exit 1); "" names no file.  Exit code or
SystemExit code, the report, sys.stdout, sys.stderr and every file written
must agree; a job file that `--out` overwrote counts as written and is put
back before the next run.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corings import __version__, cli
from corings.cli import run
from tests.conftest import argparse_run

ROOT = Path(__file__).resolve().parent.parent
ZERO_TWIST = (
    '{"rings": {"F2": {"modulus": 2, "kind": "quotient", "poly": [0, 1]}},'
    ' "extension": {"base": "F2", "top": {"modulus": 2, "kind": "quotient", "poly": [1, 1, 1]},'
    ' "eta": [[1, 0]], "basis": [[1, 0], [0, 1]]},'
    ' "command": {"name": "cocycle-check", "twist": [0, 0, 0, 0, 0, 0, 0, 0]}}'
)
JOB_FILES = {"a b": (ROOT / "perfbench" / "jobs" / "h2-f4.json").read_bytes(), "-": ZERO_TWIST.encode()}

PATHS = ["", "-", "a b"]
OPTIONS = ["--cap", "--jobs", "--format", "--out"]
OTHER = ["--form", "--ca", "--format=json", "-h", "--help", "--version", "--"]
VALUES = ["5", " 7", "+3", "1_0", "٣", "-5", "x", "json", "xml", "-a b"]

USAGE_ERRORS = [
    [],  # no job file
    ["a b", "a b"],  # a second job file
    ["a b", "--cap"],  # a missing value
    ["a b", "--jobs", "x"],  # not an integer
    ["a b", "--format", "xml"],  # not a format
    ["a b", "--cap=5", "--bogus"],  # no such option
]


@pytest.fixture(scope="module")
def job_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv")
    for name, data in JOB_FILES.items():
        (path / name).write_bytes(data)
    return path


@contextlib.contextmanager
def inside(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def outcome(runner, argv, where):
    """What one run shows: its exit, report bytes, sys.stdout, sys.stderr and files written."""
    report, out, err = io.BytesIO(), io.StringIO(), io.StringIO()
    with inside(where), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = runner(list(argv), stdout=report)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        written = {}
        for name in sorted(os.listdir()):
            data = Path(name).read_bytes()
            if data == JOB_FILES.get(name):
                continue
            written[name] = data
            if name in JOB_FILES:  # `--out` wrote over a job file: put it back for the next run
                Path(name).write_bytes(JOB_FILES[name])
            else:
                os.unlink(name)
    return code, report.getvalue(), out.getvalue(), err.getvalue(), written


FITTING = {"--cap": ["5", " 7", "+3", "1_0", "٣"], "--jobs": ["5", "+3", "٣"], "--format": ["json", "text"],
           "--out": ["5", " 7", "x", "json"]}


@st.composite
def argvs(draw):
    """Half of them plain lines of fitting values; the rest any mix of the tokens."""
    if draw(st.booleans()):
        opts = draw(st.lists(st.sampled_from(OPTIONS), max_size=4))
        argv = [t for opt in opts for t in (opt, draw(st.sampled_from(FITTING[opt])))]
        at = draw(st.integers(0, len(opts)))
        return argv[: 2 * at] + [draw(st.sampled_from(PATHS))] + argv[2 * at :]
    pair = st.tuples(st.sampled_from(OPTIONS + OTHER), st.sampled_from(VALUES + ["text"])).map(list)
    one = st.sampled_from(PATHS + OPTIONS + OTHER + VALUES).map(lambda t: [t])
    parts = draw(st.lists(st.sampled_from(PATHS).map(lambda p: [p]) | pair | one, max_size=5))
    return [t for part in parts for t in part]


@settings(max_examples=250, deadline=None)
@given(argvs())
@example(["a b"])
@example(["-"])
@example(["a b", "--format", "json", "--cap", "5", "--jobs", "+3"])
@example(["--out", " 7", "a b", "--format", "json", "--out", "x", "--cap", "٣"])
@example(["a b", "--out", "", "--jobs", "1_0"])
@example(["", "--cap", "-5"])
@example(["a b", "--out", "-a b"])
@example(["-", "--out", "-", "--out", "-"])
def test_reader_agrees_with_argparse(job_dir, argv):
    read = cli._read_argv(argv)
    if read is not None:
        assert cli._parse_argv(argv) == read
    assert outcome(run, argv, job_dir) == outcome(argparse_run, argv, job_dir)


@pytest.mark.parametrize("argv", [["--help"], ["--version"], *USAGE_ERRORS])
def test_help_version_and_usage_errors_are_argparse_own(job_dir, argv):
    """Pinned against the oracle, not as text: Python 3.10 and 3.11 word help differently."""
    assert cli._read_argv(argv) is None
    ours = outcome(run, argv, job_dir)
    assert ours == outcome(argparse_run, argv, job_dir)
    code, report, out, err, written = ours
    assert report == b"" and written == {}
    if argv == ["--help"]:
        assert code == ("SystemExit", 0) and out.startswith("usage: corings ") and err == ""
    elif argv == ["--version"]:
        assert code == ("SystemExit", 0) and out == f"corings {__version__}\n" and err == ""
    else:
        assert code == ("SystemExit", 2) and out == ""
        assert err.startswith("usage: corings ") and "\ncorings: error: " in err
