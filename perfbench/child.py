"""One fresh interpreter: set up a workload, run one pass or one CLI job, check it.

Reads a task (JSON) on stdin and writes one JSON result line on stdout.
Every timed run starts here from a cold process, so the library's
module-level caches are always empty, as they are for a CLI user.

Modes:
  setup  build the workload's inputs and report the set-up time only;
  job    run one CLI job through corings.cli.run (cli-mix);
  pass   run one pass of the workload's timed operations (the other workloads).

Checks run after the timed region with tracing off, against the committed
expected values in expected.json or by the mathematics of each result.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))


def monotonic() -> float:
    # system-wide clock, comparable with the parent's spawn time stamp
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def simple_extension(base, top):
    """top over base with eta the unit map and the native basis of top."""
    import numpy as np

    from corings import Extension, RingHom

    eta = RingHom(base, top, np.outer(top.one, base.one) % top.n)
    return Extension(base, top, eta, np.eye(top.rank, dtype=np.int64))


def build(workload: str) -> dict:
    """The extensions a workload runs on; cli-mix builds its rings per job."""
    if workload == "cli-mix":
        import corings.cli  # noqa: F401

        return {}
    import corings

    if workload == "h2-classes":
        return {
            "gf9": simple_extension(corings.zmod_ring(3), corings.make_quotient_ring(3, [1, 0, 1])),
            "gr42": simple_extension(corings.zmod_ring(4), corings.make_quotient_ring(4, [1, 1, 1])),
        }
    from corings.extensions import amitsur_rebase

    f4_over_f2 = simple_extension(corings.zmod_ring(2), corings.make_quotient_ring(2, [1, 1, 1]))
    return {"rebased": amitsur_rebase(f4_over_f2)}


def rows(a) -> list:
    return [[int(v) for v in row] for row in a]


def array_sha256(a) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


class Pass:
    """Times a pass, collects its outputs and counts its checked operations."""

    def __init__(self):
        self.phases: dict[str, float] = {}
        self.outputs: list = []
        self.checks: list[tuple[str, bool]] = []

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0

    def check(self, op: str, ok: bool) -> None:
        self.checks.append((op, bool(ok)))


def pass_h2_classes(p: Pass, exts: dict, inputs: dict, expected: dict, verify: bool):
    import numpy as np
    from corings import amitsur, classify

    results = {}
    for key, ext in exts.items():
        inp = inputs[key]
        with p.phase("h2_s"):
            g = amitsur.compute_h2(ext, jobs=1)
        with p.phase("quotient_s"):
            q = classify.monoid_quotient(ext, "full", jobs=1)
        classes = [classify.BrauerClass.of_twist(amitsur.TwistElement(ext, row)) for row in g.z2]
        products = [classes[a] * classes[b] for a, b in inp["class_pairs"]]
        inverses = [classes[a].inverse() for a, _ in inp["class_pairs"]]
        witnesses = [
            amitsur.cohomologous(amitsur.TwistElement(ext, u), amitsur.TwistElement(ext, v), jobs=1)
            for u, v in inp["cohomologous_pairs"]
        ]
        results[key] = (g, q, classes, products, inverses, witnesses)

    def verdicts():
        for key, (g, q, classes, products, inverses, witnesses) in results.items():
            ext, inp, exp = exts[key], inputs[key], expected[key]
            p.outputs.append(
                [rows(g.z2), rows(g.b2), rows(g.representatives), rows(q.representatives),
                 list(q.orbit_sizes), [bool(v) for v in q.invertible],
                 [list(c.rep) for c in classes + products + inverses],
                 [None if w is None else [int(v) for v in w] for w in witnesses]]
            )
            p.check(f"{key}.compute_h2", rows(g.z2) == exp["z2"] and rows(g.b2) == exp["b2"]
                    and g.order == exp["h2_order"])
            p.check(f"{key}.monoid_quotient", len(q.representatives) == exp["quotient_orbits"]
                    and sum(q.orbit_sizes) == exp["census"]["cosickles"]
                    and int(q.invertible.sum()) == exp["h2_order"])
            for c in classes:
                p.check(f"{key}.of_twist", list(c.rep) == exp["identity_class"])
            for (a, _), prod, inv in zip(inp["class_pairs"], products, inverses):
                p.check(f"{key}.product", list(prod.rep) == exp["identity_class"])
                p.check(f"{key}.inverse", (classes[a] * inv).is_identity())
            t3 = ext.tensor_power(3).ring
            for (u, v), w in zip(inp["cohomologous_pairs"], witnesses):
                ok = w is not None and rows([t3.mul_vec(np.array(v), amitsur.delta1(ext, w))]) == [u]
                p.check(f"{key}.cohomologous", ok)
            if verify:
                census = classify.classify_all(ext, jobs=1, counit_oracle=False)
                p.check(f"{key}.census", census.counts == exp["census"])

    return verdicts


def pass_rebased_sweep(p: Pass, exts: dict, inputs: dict, expected: dict, verify: bool):
    from corings import algebras, amitsur, classify, rings

    ext = exts["rebased"]
    with p.phase("units_s"):
        units = rings.enumerate_units(ext.tensor_power(3).ring, jobs=1, as_array=True)
    with p.phase("h2_s"):
        g = amitsur.compute_h2(ext, jobs=1)
    with p.phase("census_s"):
        census = classify.classify_all(ext, jobs=1, counit_oracle=False)
    duals = []
    for row in inputs["cocycles"]:
        tw = amitsur.TwistElement(ext, row)
        gm = algebras.gamma_map(tw)
        alg = algebras.TwistedAlgebra(ext, tw, "right").algebra()
        duals.append((gm, alg.dim, algebras.is_azumaya_algebra(alg)))

    def verdicts():
        exp = expected["rebased"]
        p.outputs.append(
            [array_sha256(units), rows(g.z2), rows(g.b2), rows(g.representatives), census.counts,
             array_sha256(census.is_cosickle.astype("i8")), array_sha256(census.is_unit.astype("i8")),
             [[gm.ok, gm.descent_rank, dim, az] for gm, dim, az in duals]]
        )
        p.check("units", len(units) == exp["units3_count"] and array_sha256(units) == exp["units3_sha256"])
        p.check("compute_h2", rows(g.z2) == exp["z2"] and rows(g.b2) == exp["b2"]
                and g.order == exp["h2_order"])
        p.check("classify_all", census.counts == exp["census"])
        for gm, dim, az in duals:
            p.check("gamma_map", gm.ok)
            p.check("is_azumaya_algebra", az and dim == exp["dual_dimension"])

    return verdicts


PASSES = {"h2-classes": pass_h2_classes, "rebased-sweep": pass_rebased_sweep}


def check_report(job: dict, code: int, data: bytes, expected: dict) -> bool:
    """A fixed job must reproduce its committed digest; a seeded one is
    checked by the mathematics of its report."""
    if code != 0:
        return False
    if "sha256" in job:
        return hashlib.sha256(data).hexdigest() == job["sha256"]
    res = json.loads(data)["result"]
    one = expected["gr42"]["top_one"]
    return {
        "cocycle-check": lambda: res["is_cocycle"] and res["is_unit"],
        "normalize": lambda: res["norm_after"] == one,
        "twist": lambda: res["azumaya"] and res["coassociative"] and res["counit_exists"],
        "dual-algebra": lambda: res["side"] == "left" and res["dimension"] == expected["gr42"]["dual_dimension"],
        "gamma-verify": lambda: res["ok"],
        "azumaya-check": lambda: res["azumaya"],
    }[job["command"]]()


def machine_info() -> dict:
    import platform

    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    info["blas_threads"] = _openblas_threads(np)
    return info


def _openblas_threads(np):
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main() -> int:
    task = json.load(sys.stdin)
    src = os.path.join(task["root"], "src")
    workload = task["workload"]
    exts = build(workload)
    setup_s = monotonic() - task["t_spawn"]
    import corings

    if not os.path.abspath(corings.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"corings imported from {corings.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s}
    if task["mode"] == "setup":
        if task.get("machine"):
            out["machine"] = machine_info()
        print(json.dumps(out))
        return 0

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    recorder = None
    if task["trace"]:
        import tracing  # imported late: it is not part of the measured set-up

        recorder = tracing.Recorder()
        tracing.install(recorder)
        recorder.enabled = True

    if task["mode"] == "job":
        from corings import cli

        job = task["job"]
        buf = io.BytesIO()
        t0 = time.perf_counter()
        code = cli.run([job["path"], "--format", job["format"], "--jobs", "1"], stdout=buf)
        wall = time.perf_counter() - t0
        if recorder:
            recorder.enabled = False
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        data = buf.getvalue()
        out.update(
            wall_s=wall,
            phases={},
            digest=hashlib.sha256(data).hexdigest(),
            checks=[[job["name"], check_report(job, code, data, expected)]],
        )
    else:
        p = Pass()
        t0 = time.perf_counter()
        verdicts = PASSES[workload](p, exts, task["inputs"], expected, task.get("verify", False))
        wall = time.perf_counter() - t0
        if recorder:
            recorder.enabled = False
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts()
        out.update(
            wall_s=wall,
            phases=p.phases,
            digest=hashlib.sha256(json.dumps(p.outputs, sort_keys=True).encode()).hexdigest(),
            checks=[list(c) for c in p.checks],
        )
    out["peak_rss_mb"] = rss
    if recorder:
        out["trace"] = tracing.aggregate(recorder)
        out["spans"] = recorder.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
