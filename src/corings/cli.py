"""Command-line front end: one JSON job file in, one deterministic report out.

A job file defines rings, one extension S/R, and a command:

    {
      "rings": {"F2": {"modulus": 2, "kind": "quotient", "poly": [0, 1]}},
      "extension": {
        "base": "F2",
        "top": {"modulus": 2, "kind": "quotient", "poly": [1, 1, 1]},
        "eta": [[1, 0]],
        "basis": [[1, 0], [0, 1]]
      },
      "command": {"name": "h2"}
    }

Ring definitions are {"modulus": n, "kind": "quotient", "poly": [c0,..,1]}
or {"modulus": n, "kind": "product", "factors": [<ring>, <ring>]}, inline or
referenced by name from "rings".  "eta" lists the image of each base basis
element in top-ring coordinates; "basis" lists the declared R-basis of S.

Reports are byte-identical for identical inputs regardless of --jobs; all
element lists appear in lexicographic coefficient order.  Exit codes:
0 success, 1 mathematical check failed, 2 input error (an unreadable job
file and an unwritable --out among them), 3 resource cap hit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, zmod
from .algebras import TwistedAlgebra, algebra_from_extension, gamma_map, is_azumaya_algebra
from .amitsur import NotACocycleError, NotAUnitError, TwistElement, compute_h2, normalize
from .classify import classify_all, compare_via_refinement
from .coring import coring_axiom_report, twisted_coring
from .extensions import Extension
from .rings import (
    DEFAULT_CAP,
    FiniteRing,
    RingHom,
    RingTooLarge,
    enumerate_units,
    make_product_ring,
    make_quotient_ring,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_CAP = 3


class JobSpecError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class MathCheckFailure(Exception):
    """A verification command found its property false; its one argument is the result."""


@dataclass
class JobSpec:
    extension: Extension
    command: str
    params: dict
    other_extension: Extension | None = None
    digest: str = ""
    twist: np.ndarray | None = None
    other_twist: np.ndarray | None = None
    cap: int = DEFAULT_CAP


# -- parsing ------------------------------------------------------------------------


def _expect(obj, key, path, kind=None):
    if key not in obj:
        raise JobSpecError(f"{path}.{key}", "missing field")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise JobSpecError(f"{path}.{key}", f"expected {kind.__name__}")
    return val


def _int_array(value, path: str, ndim: int, n: int) -> np.ndarray:
    """A JSON array of integers nested ndim deep, rectangular, reduced mod n.

    Bools, floats, strings and wrong nesting are input errors at the path of
    the offending entry; reducing before conversion keeps huge integers exact.
    """

    def walk(v, p: str, depth: int):
        if depth == 0:
            if isinstance(v, bool) or not isinstance(v, int):
                raise JobSpecError(p, f"expected an integer, got {json.dumps(v)}")
            return v % n
        if not isinstance(v, list):
            raise JobSpecError(p, f"expected an array, got {json.dumps(v)}")
        return [walk(x, f"{p}[{i}]", depth - 1) for i, x in enumerate(v)]

    rows = walk(value, path, ndim)
    if ndim == 2 and len({len(row) for row in rows}) > 1:
        raise JobSpecError(path, "rows must all have the same length")
    return np.array(rows, dtype=np.int64)


def _build_ring(defn, rings: dict, path: str) -> FiniteRing:
    if isinstance(defn, str):
        if defn not in rings:
            raise JobSpecError(path, f"unresolved ring reference {defn!r}")
        return rings[defn]
    if not isinstance(defn, dict):
        raise JobSpecError(path, "ring definition must be an object or a name")
    n = _expect(defn, "modulus", path, int)
    if isinstance(n, bool) or not 2 <= n <= zmod.MAX_MODULUS:
        raise JobSpecError(f"{path}.modulus", f"expected an integer from 2 to {zmod.MAX_MODULUS}, got {n!r}")
    kind = _expect(defn, "kind", path, str)
    if kind == "quotient":
        poly = _int_array(_expect(defn, "poly", path), f"{path}.poly", 1, n)
        try:
            return make_quotient_ring(n, poly)
        except ValueError as exc:
            raise JobSpecError(f"{path}.poly", str(exc)) from None
    if kind == "product":
        factors = _expect(defn, "factors", path, list)
        if len(factors) != 2:
            raise JobSpecError(f"{path}.factors", "expected exactly two factors")
        a = _build_ring(factors[0], rings, f"{path}.factors[0]")
        b = _build_ring(factors[1], rings, f"{path}.factors[1]")
        try:
            return make_product_ring(a, b)
        except ValueError as exc:
            raise JobSpecError(f"{path}.factors", str(exc)) from None
    raise JobSpecError(f"{path}.kind", f"unknown kind {kind!r} (quotient or product)")


def _build_extension(defn, rings: dict, path: str) -> Extension:
    if not isinstance(defn, dict):
        raise JobSpecError(path, "extension must be an object")
    base = _build_ring(_expect(defn, "base", path), rings, f"{path}.base")
    top = _build_ring(_expect(defn, "top", path), rings, f"{path}.top")
    eta_mat = _int_array(_expect(defn, "eta", path), f"{path}.eta", 2, top.n).T
    basis = _int_array(_expect(defn, "basis", path), f"{path}.basis", 2, top.n)
    try:
        if eta_mat.ndim != 2 or eta_mat.shape != (top.rank, base.rank):
            raise ValueError(
                f"expected {base.rank} image vectors of length {top.rank}"
            )
        eta = RingHom(base, top, eta_mat)
    except ValueError as exc:
        raise JobSpecError(f"{path}.eta", str(exc)) from None
    try:
        return Extension(base, top, eta, basis)
    except ValueError as exc:
        raise JobSpecError(f"{path}.basis", str(exc)) from None


def _twist_param(params: dict, ext: Extension, path: str) -> np.ndarray:
    vec = _int_array(_expect(params, "twist", path), f"{path}.twist", 1, ext.n)
    want = ext.tensor_power(3).rank
    if len(vec) != want:
        raise JobSpecError(
            f"{path}.twist", f"expected {want} coefficients for S^(x3), got {len(vec)}"
        )
    return vec


def parse_job(text: str | bytes, digest: str = "") -> JobSpec:
    """Parse and validate a job file, text or UTF-8 bytes; raises JobSpecError with a field path.

    Invalid UTF-8 and JSON nested past the recursion limit fail at `$`, in our own words.
    """
    try:
        return _parse_doc(text.decode("utf-8") if isinstance(text, bytes) else text, digest)
    except UnicodeDecodeError as exc:
        raise JobSpecError("$", f"job file is not valid UTF-8 (byte {exc.start}: {exc.reason})") from None
    except RecursionError:
        raise JobSpecError("$", "JSON nested too deeply") from None


def _parse_doc(text: str, digest: str) -> JobSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobSpecError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except ValueError as exc:  # an integer past Python's digit limit: its message, less the advice
        raise JobSpecError("$", str(exc).partition(";")[0]) from None
    if not isinstance(doc, dict):
        raise JobSpecError("$", "job file must be a JSON object")
    rings: dict[str, FiniteRing] = {}
    if not isinstance(doc.get("rings", {}), dict):
        raise JobSpecError("rings", "expected an object mapping names to ring definitions")
    for name, defn in doc.get("rings", {}).items():
        rings[name] = _build_ring(defn, rings, f"rings.{name}")
    ext = _build_extension(_expect(doc, "extension", "$"), rings, "extension")
    cmd_obj = _expect(doc, "command", "$", dict)
    name = _expect(cmd_obj, "name", "command", str)
    if name not in COMMANDS:
        raise JobSpecError(
            "command.name", f"unknown command {name!r}; valid commands: {', '.join(COMMANDS)}"
        )
    params = {k: v for k, v in cmd_obj.items() if k != "name"}
    spec = JobSpec(extension=ext, command=name, params=params, digest=digest)
    if name == "azumaya-check" and params.get("algebra", "top") != "top":
        raise JobSpecError("command.algebra", f"expected \"top\" (or a twist instead), got {params['algebra']!r}")
    needs_twist = name in ("cocycle-check", "normalize", "twist", "dual-algebra", "gamma-verify", "compare") or (
        name == "azumaya-check" and "algebra" not in params
    )
    if needs_twist:
        spec.twist = _twist_param(params, ext, "command")
    if name == "compare":
        other = _expect(params, "other", "command", dict)
        spec.other_extension = _build_extension(
            _expect(other, "extension", "command.other"), rings, "command.other.extension"
        )
        spec.other_twist = _twist_param(other, spec.other_extension, "command.other")
    if "cap" in params:
        cap = params["cap"]
        if isinstance(cap, bool) or not isinstance(cap, int) or cap <= 0:
            raise JobSpecError("command.cap", "cap must be a positive integer")
        spec.cap = params["cap"]
    return spec


# -- command payloads ------------------------------------------------------------------


def _vecs(rows) -> list:
    return [[int(v) for v in row] for row in rows]


def _run_units(spec: JobSpec) -> dict:
    level = spec.params.get("level", 1)
    if isinstance(level, bool) or not isinstance(level, int) or level < 1:
        raise JobSpecError("command.level", "level must be a positive integer")
    ring = spec.extension.tensor_power(level).ring
    units = enumerate_units(ring, cap=spec.cap, as_array=True)
    return {"level": level, "ring": ring.name, "count": len(units), "units": _vecs(units)}


def _run_h2(spec: JobSpec) -> dict:
    g = compute_h2(spec.extension, cap=spec.cap)
    return {
        "z2_order": len(g.z2),
        "b2_order": len(g.b2),
        "h2_order": g.order,
        "z2": _vecs(g.z2),
        "b2": _vecs(g.b2),
        "representatives": _vecs(g.representatives),
    }


def _run_cocycle_check(spec: JobSpec) -> dict:
    tw = TwistElement(spec.extension, spec.twist)
    ok = tw.is_cocycle
    out = {
        "twist": _vecs([tw.u.coeffs])[0],
        "is_unit": tw.is_unit,
        "is_cocycle": ok,
        "norm": _vecs([tw.norm.coeffs])[0],
    }
    if not ok:
        raise MathCheckFailure(out)
    return out


def _run_normalize(spec: JobSpec) -> dict:
    tw = TwistElement(spec.extension, spec.twist)
    tw2, witness = normalize(tw)
    return {
        "input": _vecs([tw.u.coeffs])[0],
        "normalized": _vecs([tw2.u.coeffs])[0],
        "witness": _vecs([witness])[0],
        "norm_before": _vecs([tw.norm.coeffs])[0],
        "norm_after": _vecs([tw2.norm.coeffs])[0],
    }


def _run_twist(spec: JobSpec) -> dict:
    c = twisted_coring(spec.extension, spec.twist)
    report = coring_axiom_report(c)
    report["twist"] = _vecs([c.twist.u.coeffs])[0]
    return report


def _run_classify(spec: JobSpec) -> dict:
    census = classify_all(spec.extension, cap=spec.cap)
    rows = [
        {
            "element": [int(v) for v in el],
            "unit": bool(u),
            "cocycle": bool(co),
            "cosickle": bool(cs),
            "almost_invertible": bool(ai),
        }
        for el, u, co, cs, ai in zip(
            census.elements,
            census.is_unit,
            census.is_cocycle,
            census.is_cosickle,
            census.is_almost_invertible,
        )
    ]
    return {"condition": census.condition, "counts": census.counts, "census": rows}


def _run_dual_algebra(spec: JobSpec) -> dict:
    ext = spec.extension
    side = spec.params.get("side", "right")
    if side not in ("right", "left"):
        raise JobSpecError("command.side", "side must be 'right' or 'left'")
    alg = TwistedAlgebra(ext, TwistElement(ext, spec.twist), side).algebra()
    basis = np.stack([alg.basis_coords(a).ravel() for a in range(alg.dim)])
    prods = alg.products(basis, basis).reshape(alg.dim, alg.dim, alg.dim, -1)
    table = [
        {"left": a, "right": b, "product": _vecs(prods[a, b])}
        for a in range(alg.dim)
        for b in range(alg.dim)
    ]
    return {
        "side": side,
        "dimension": alg.dim,
        "unit": _vecs(alg.one),
        "table": table,
    }


def _run_gamma_verify(spec: JobSpec) -> dict:
    g = gamma_map(TwistElement(spec.extension, spec.twist))
    out = {
        "injective": g.injective,
        "image_is_descent_algebra": g.image_is_descent_algebra,
        "multiplicative": g.multiplicative,
        "unital": g.unital,
        "two_sided_inverse": g.two_sided_inverse,
        "descent_module_rank": g.descent_rank,
        "ok": g.ok,
    }
    if not g.ok:
        raise MathCheckFailure(out)
    return out


def _run_azumaya_check(spec: JobSpec) -> dict:
    ext = spec.extension
    if spec.twist is None:  # "algebra": "top"
        alg = algebra_from_extension(ext)
        subject = "top-ring"
    else:
        alg = TwistedAlgebra(ext, TwistElement(ext, spec.twist), "right").algebra()
        subject = "twisted-endomorphism-algebra"
    ok = is_azumaya_algebra(alg)
    out = {
        "subject": subject,
        "dimension": alg.dim,
        "enveloping_matrix_size": alg.dim**2 * alg.base.rank,  # the Z/n-rank of A ⊗ A^op
        "azumaya": ok,
    }
    if not ok:
        raise MathCheckFailure(out)
    return out


def _run_compare(spec: JobSpec) -> dict:
    left = twisted_coring(spec.extension, spec.twist)
    right = twisted_coring(spec.other_extension, spec.other_twist)
    res = compare_via_refinement(left, right, cap=spec.cap)
    return {
        "equivalent": res.equivalent,
        "refined_extension": res.refined_ext.name,
        "left_refined_twist": _vecs([res.left_twist])[0],
        "right_refined_twist": _vecs([res.right_twist])[0],
        "witness": _vecs([res.witness])[0] if res.witness is not None else [],
    }


_RUNNERS = {
    "units": _run_units,
    "h2": _run_h2,
    "cocycle-check": _run_cocycle_check,
    "normalize": _run_normalize,
    "twist": _run_twist,
    "classify": _run_classify,
    "dual-algebra": _run_dual_algebra,
    "gamma-verify": _run_gamma_verify,
    "azumaya-check": _run_azumaya_check,
    "compare": _run_compare,
}
COMMANDS = tuple(_RUNNERS)


def _extension_info(ext: Extension) -> dict:
    return {
        "name": ext.name,
        "modulus": ext.n,
        "degree": ext.degree,
        "base_rank": ext.base.rank,
        "top_rank": ext.top.rank,
        "basis": [[int(v) for v in row] for row in ext.basis],
    }


def _report(spec: JobSpec, result: dict) -> dict:
    """The report envelope around a command's result."""
    return {
        "tool": "corings",
        "version": __version__,
        "input_digest": spec.digest,
        "extension": spec.extension.name,
        "extension_info": _extension_info(spec.extension),
        "command": spec.command,
        "result": result,
    }


def run_job(spec: JobSpec) -> dict:
    return _report(spec, _RUNNERS[spec.command](spec))


# -- report emission -------------------------------------------------------------------


def _text_lines(report: dict) -> list[str]:
    lines = [
        f"corings {report['version']}",
        f"input  sha256:{report['input_digest']}",
        f"extension  {report['extension']}",
        f"command  {report['command']}",
        "",
    ]
    res = report["result"]
    cmd = report["command"]
    if cmd == "units":
        lines.append(f"units of {res['ring']} (level {res['level']}): {res['count']}")
        for row in res["units"]:
            lines.append("  " + " ".join(str(v) for v in row))
    elif cmd == "h2":
        lines.append(f"|Z^2| = {res['z2_order']}  |B^2| = {res['b2_order']}  |H^2| = {res['h2_order']}")
        lines.append("representatives:")
        for row in res["representatives"]:
            lines.append("  " + " ".join(str(v) for v in row))
    elif cmd == "classify":
        lines.append(f"cosickle condition: {res['condition']}")
        for key in sorted(res["counts"]):
            lines.append(f"  {key}: {res['counts'][key]}")
        lines.append("")
        lines.append("element | unit? | cocycle? | cosickle? | almost-inv?")
        for row in res["census"]:
            el = "".join(str(v) for v in row["element"])
            flags = " | ".join(
                "yes" if row[k] else "no "
                for k in ("unit", "cocycle", "cosickle", "almost_invertible")
            )
            lines.append(f"{el} | {flags}")
    elif cmd == "dual-algebra":
        lines.append(f"{res['side']} dual algebra, dimension {res['dimension']}")
        lines.append(f"unit: {res['unit']}")
        for entry in res["table"]:
            lines.append(f"e{entry['left']} * e{entry['right']} = {entry['product']}")
    else:
        for key in sorted(res):
            lines.append(f"{key}: {json.dumps(res[key], sort_keys=True)}")
    lines.append("")
    return lines


def emit_report(report: dict, fmt: str) -> bytes:
    """Render a report deterministically as UTF-8 bytes."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    return "\n".join(_text_lines(report)).encode()


# -- entry point -----------------------------------------------------------------------


def _read_argv(argv: list[str]) -> tuple | None:
    """(jobfile, cap, jobs, format, out) of a plain command line, read without argparse; else None.

    A plain line is one job file and any of --cap, --jobs, --format and
    --out as `--opt value` pairs, in any order; as in argparse each
    occurrence is converted and checked, and the last one wins.  Every other
    line goes to `_parse_argv`, so that its help, version or usage error is
    argparse's own: `-h`, `--version`, `--opt=value`, abbreviations, `--`, a
    token or value starting with "-" (argparse reads some as values), a
    missing or second job file, a missing value, a failed int() and any
    other format.
    """
    jobfile, cap, jobs, fmt, out = None, None, 1, "text", None
    tokens = iter(argv)
    try:
        for tok in tokens:
            if not tok.startswith("-"):
                if jobfile is not None:
                    return None
                jobfile = tok
                continue
            value = next(tokens)
            if value.startswith("-"):
                return None
            if tok == "--cap":
                cap = int(value)
            elif tok == "--jobs":
                jobs = int(value)
            elif tok == "--format" and value in ("text", "json"):
                fmt = value
            elif tok == "--out":
                out = value
            else:
                return None
    except (StopIteration, ValueError):
        return None
    return None if jobfile is None else (jobfile, cap, jobs, fmt, out)


def _parse_argv(argv: list[str]) -> tuple:
    """(jobfile, cap, jobs, format, out) from argparse, for every line `_read_argv` declines.

    Prints help, the version or a usage error and raises SystemExit where
    argparse does.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="corings",
        description="exact Amitsur cohomology and Azumaya coring computations",
    )
    parser.add_argument("jobfile", help="JSON job definition file")
    parser.add_argument("--cap", type=int, default=None, help="enumeration cap (elements)")
    parser.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; every sweep runs in one pass"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--version", action="version", version=f"corings {__version__}")
    args = parser.parse_args(argv)
    return args.jobfile, args.cap, args.jobs, args.format, args.out


def run(argv: list[str] | None = None, stdout=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    jobfile, cap, jobs, fmt, out = _read_argv(argv) or _parse_argv(argv)
    stdout = stdout if stdout is not None else sys.stdout.buffer

    try:
        with open(jobfile, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    digest = hashlib.sha256(raw).hexdigest()

    try:
        spec = parse_job(raw, digest=digest)
        if cap is not None:
            if cap <= 0:
                raise JobSpecError("--cap", "cap must be positive")
            spec.cap = cap
        if jobs < 1:
            raise JobSpecError("--jobs", "worker count must be at least 1")
        report = run_job(spec)
        code = EXIT_OK
    except JobSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RingTooLarge as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MathCheckFailure as exc:
        report = _report(spec, exc.args[0])
        code = EXIT_MATH
    except (NotACocycleError, NotAUnitError, ValueError) as exc:
        print(f"error: mathematical precondition: {exc}", file=sys.stderr)
        return EXIT_MATH

    data = emit_report(report, fmt)
    if not out:
        stdout.write(data)
        return code
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
