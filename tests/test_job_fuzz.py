"""Mutated job documents through the CLI entry point.

The documents start from the acceptance jobs over the desk fixtures and from
`units` jobs over GR(4,2)/Z4, GF(9)/F3 and the degree-1 F2/F2.  Every run
must end with an exit code in {0, 1, 2, 3} and without a traceback; a value
of the wrong JSON type at a validated field must exit 2, and so must an
integer at any integer field with more digits than Python reads and a byte
that leaves the file invalid UTF-8.  `command.level`
is drawn from the boundary cases {0, -1, 1, 63, 64, 2^40, 10^30, True, 2.5,
"3"} and from integers up to 2^70.  Every run has `--cap 4096`, and every
mutation keeps rings of degree at most 3, so no example reaches a slow path.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corings.cli import COMMANDS, EXIT_CAP, EXIT_INPUT, EXIT_OK, run
from tests.test_acceptance import ACCEPTANCE_JOBS, F2, F4, F4_EXT, SIMPLE

RINGS = {"F2": F2, "F4": F4}
GR42_EXT = {"base": {"modulus": 4, "kind": "quotient", "poly": [0, 1]},
            "top": {"modulus": 4, "kind": "quotient", "poly": [1, 1, 1]}, **SIMPLE}
GF9_EXT = {"base": {"modulus": 3, "kind": "quotient", "poly": [0, 1]},
           "top": {"modulus": 3, "kind": "quotient", "poly": [1, 0, 1]}, **SIMPLE}
F2_EXT = {"base": "F2", "top": "F2", "eta": [[1]], "basis": [[1]]}
UNITS_EXTENSIONS = [F4_EXT, GR42_EXT, GF9_EXT, F2_EXT]

DOCS = [{"rings": RINGS, "extension": ext, "command": cmd} for _, ext, cmd in ACCEPTANCE_JOBS]
DOCS += [{"rings": RINGS, "extension": ext, "command": {"name": "units", "level": 2}} for ext in UNITS_EXTENSIONS]

LEVELS = [0, -1, 1, 63, 64, 2**40, 10**30, True, 2.5, "3"]
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit

scalars = st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-3, 9) | st.text("abF24", max_size=3)
values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(["F2", "name", "poly"]), kids, max_size=2),
    max_leaves=6,
)


def json_type(value) -> str:
    for kind, test in (("bool", bool), ("int", int), ("float", float), ("str", str), ("array", list), ("object", dict)):
        if isinstance(value, test):
            return kind
    return "null"


def ring_fields(path, defn):
    if isinstance(defn, dict):
        yield path, {"object", "str"}
        yield path + ("modulus",), {"int"}
        yield path + ("kind",), {"str"}
        yield path + ("poly",), {"array"}
        for i in range(len(defn["poly"])):
            yield path + ("poly", i), {"int"}


def extension_fields(path, ext):
    yield path, {"object"}
    yield from ring_fields(path + ("base",), ext["base"])
    yield from ring_fields(path + ("top",), ext["top"])
    for key in ("eta", "basis"):
        yield path + (key,), {"array"}
        for i, row in enumerate(ext[key]):
            yield path + (key, i), {"array"}
            for j in range(len(row)):
                yield path + (key, i, j), {"int"}


def typed_fields(doc):
    """Every validated field of a document and the JSON types it accepts."""
    yield ("rings",), {"object"}
    for name, defn in doc["rings"].items():
        yield from ring_fields(("rings", name), defn)
    yield from extension_fields(("extension",), doc["extension"])
    cmd = doc["command"]
    yield ("command",), {"object"}
    yield ("command", "name"), {"str"}
    for key in ("twist", "level", "side", "other"):
        if key not in cmd:
            continue
        if key == "twist":
            yield ("command", "twist"), {"array"}
            for i in range(len(cmd["twist"])):
                yield ("command", "twist", i), {"int"}
        elif key == "other":
            yield ("command", "other"), {"object"}
            yield from extension_fields(("command", "other", "extension"), cmd["other"]["extension"])
            yield ("command", "other", "twist"), {"array"}
        else:
            yield ("command", key), {"int"} if key == "level" else {"str"}


def paths(node, path=()):
    """Every path into a document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from paths(child, path + (key,))


_DELETE = object()


def put(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def run_doc(doc):
    return run_text(json.dumps(doc))


def run_text(text):
    """Exit code and stderr of the CLI on one job file's text or bytes; a traceback fails the test."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([path, "--cap", "4096"], stdout=io.BytesIO())
    finally:
        os.unlink(path)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_type_violations_exit_2(data):
    doc = data.draw(st.sampled_from(DOCS))
    path, allowed = data.draw(st.sampled_from(list(typed_fields(doc))))
    value = data.draw(values.filter(lambda v: json_type(v) not in allowed))
    code, err = run_doc(put(doc, path, value))
    assert code == EXIT_INPUT, err


@pytest.mark.skipif(not 0 < DIGIT_LIMIT < 5001, reason="this Python reads a 5001-digit integer")
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integers_past_the_digit_limit_exit_2(data):
    """A 5001-digit integer at any integer field stops json.loads: exit 2 at `$`,
    one line, without the advice to raise Python's limit."""
    doc = data.draw(st.sampled_from(DOCS))
    path = data.draw(st.sampled_from([p for p, allowed in typed_fields(doc) if "int" in allowed]))
    code, err = run_text(json.dumps(put(doc, path, "N")).replace('"N"', "1" + "0" * 5000))
    assert code == EXIT_INPUT and err.startswith("error: $: ") and err.count("\n") == 1, err
    assert "set_int_max_str_digits" not in err


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_invalid_utf8_bytes_exit_2(data):
    """One byte from 0x80..0xff put anywhere into a job file, which json.dumps
    writes in ASCII, leaves it invalid UTF-8: exit 2 at `$`, one line."""
    raw = json.dumps(data.draw(st.sampled_from(DOCS))).encode()
    at = data.draw(st.integers(0, len(raw)))
    byte = bytes([data.draw(st.integers(0x80, 0xFF))])
    code, err = run_text(raw[:at] + byte + raw[at:])
    assert code == EXIT_INPUT and err.startswith("error: $: job file is not valid UTF-8") and err.count("\n") == 1, err


WORDS = list(COMMANDS) + ["F2", "F4", "quotient", "product", "top", "left", "right"]
KEYS = ["cap", "level", "side", "algebra", "twist", "other", "factors", "kind", "F4"]


def near(value):
    """Values of the same JSON type as value, most of them valid there."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-2, 9)
    if isinstance(value, str):
        return st.sampled_from(WORDS)
    if isinstance(value, list) and all(json_type(v) == "int" for v in value):
        return st.lists(st.integers(-1, 4), min_size=max(len(value) - 1, 0), max_size=max(len(value) + 1, 4))
    return values


@st.composite
def mutated(draw):
    """A document after one to three edits: a field replaced by a value of its
    own type or of any type, a key deleted, or a key added to an object."""
    doc = draw(st.sampled_from(DOCS))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(paths(doc), key=len, reverse=True)))  # leaves first
        node = doc
        for key in path:
            node = node[key]
        edit = draw(st.sampled_from(["near", "near", "any", "delete", "add"]))
        if edit == "add" and isinstance(node, dict):
            path, node = path + (draw(st.sampled_from(KEYS)),), None
        if edit == "delete" and isinstance(path[-1], str):
            doc = put(doc, path, _DELETE)
        else:
            doc = put(doc, path, draw(near(node) if edit == "near" else values))
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_mutated_jobs_end_with_an_exit_code(doc):
    run_doc(doc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(UNITS_EXTENSIONS), st.sampled_from(LEVELS) | st.integers(-2, 2**70))
@example(F2_EXT, 64)
@example(F2_EXT, 2**40)
@example(F2_EXT, 10**30)
@example(GR42_EXT, 10**30)
def test_units_levels(extension, level):
    """A level that is not a positive integer exits 2; every other level
    answers or is refused with exit 3 and one line."""
    doc = {"rings": RINGS, "extension": extension, "command": {"name": "units", "level": level}}
    code, err = run_doc(doc)
    if isinstance(level, bool) or not isinstance(level, int) or level < 1:
        assert code == EXIT_INPUT and err == "error: command.level: level must be a positive integer\n"
    elif code == EXIT_OK:
        assert err == ""
    else:
        assert code == EXIT_CAP and err.startswith("error: resource cap: ") and err.count("\n") == 1
