"""Benchmark of the corings library: three workloads, checked, traced from outside.

    python3 perfbench/run.py --workload cli-mix|h2-classes|rebased-sweep|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from ./src.
The load is a closed loop with one client: this process starts one fresh
child interpreter at a time (perfbench/child.py) and waits for it.  Every
call uses jobs=1, and BLAS threads stay at the machine default (recorded).

Each run first starts a warm-up child (discarded; it records the machine)
and SETUP_SAMPLES set-up-only children, then runs passes of the workload
until --seconds is used up, at least one.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates an untraced and a traced
pass and reports the per-layer metrics and the tracing overhead.  Output
checks count toward `failed`; any failure makes the exit code 1.

Every metric is printed as a `metric <name> <value> <unit>` line.  The last
line is one JSON object with the metrics that BENCHMARK.json declares.  The
full record, with the machine, /proc/loadavg and the spans, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cli-mix", "h2-classes", "rebased-sweep")
DEFAULT_SEED = 1
SETUP_SAMPLES = 20
CHILD_TIMEOUT_S = 170

# the GR(4,2)/Z4 extension of the seeded CLI jobs
GR42_RINGS = {
    "Z4": {"modulus": 4, "kind": "quotient", "poly": [0, 1]},
    "GR": {"modulus": 4, "kind": "quotient", "poly": [1, 1, 1]},
}
GR42_EXT = {"base": "Z4", "top": "GR", "eta": [[1, 0]], "basis": [[1, 0], [0, 1]]}
SEEDED_COMMANDS = (
    ("cocycle-check", {}),
    ("normalize", {}),
    ("twist", {}),
    ("dual-algebra", {"side": "left"}),
    ("gamma-verify", {}),
    ("azumaya-check", {}),
)

UNITS = {"peak_rss_mb": "MB", "failed_ops_ratio": "ratio", "classify.classify_all.elems_per_s": "1/s"}

# per-layer metrics: span name, field of its aggregate
LAYER_METRICS = [
    "zmod.batch_is_unit.self_s", "zmod.batch_is_unit.rows",
    "zmod.batch_nonsingular.calls", "zmod.batch_nonsingular.self_s", "zmod.batch_nonsingular.census_self_s",
    "zmod.howell.calls", "zmod.howell.self_s",
    "rings.enumerate_units.s", "rings.enumerate_units.elements", "rings.FiniteRing.mul_vec.calls",
    "extensions.TensorPowerRing.builds", "extensions.TensorPowerRing.s", "extensions.Extension.face_map.s",
    "extensions.rebase_extension.s", "extensions.external_extension.s",
    "amitsur.compute_h2.self_s", "amitsur.delta1.calls", "amitsur.cocycle_mask.s", "amitsur.cocycle_mask.rows",
    "amitsur.cohomologous.s",
    "classify.classify_all.self_s", "classify.classify_all.elements", "classify.classify_all.elems_per_s",
    "classify.monoid_quotient.self_s", "classify.BrauerClass.of_twist.calls", "classify.BrauerClass.of_twist.s",
    "coring.twisted_coring.s", "coring.check_coassociative.s", "coring.coring_axiom_report.s",
    "algebras.gamma_map.s", "algebras.TwistedAlgebra.algebra.s", "algebras.is_azumaya_algebra.s",
    "cli.run.self_s", "cli.parse_job.s", "cli.run_job.self_s", "cli.emit_report.s",
]
FIELD_ALIASES = {"rows": "count", "elements": "count", "builds": "calls"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("job_ms."):
        return "ms"
    return "s" if name.endswith(("_s", ".s")) else "count"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


# -- inputs ------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, expected: dict) -> dict:
    """Everything the seed decides; the library only ever sees these values."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-mix":
        jobs = [
            {"name": f"{name}/{fmt}", "path": os.path.join("perfbench", "jobs", f"{name}.json"),
             "format": fmt, "sha256": expected["cli"][f"{name}/{fmt}"]}
            for name in sorted({k.split("/")[0] for k in expected["cli"]})
            for fmt in ("text", "json")
        ]
        twist = rng.choice(expected["gr42"]["z2"])
        jobdir = os.path.join(OUT, "jobs", f"seed{seed}")
        os.makedirs(jobdir, exist_ok=True)
        for command, extra in SEEDED_COMMANDS:
            path = os.path.join(jobdir, f"gr42-{command}.json")
            doc = {"rings": GR42_RINGS, "extension": GR42_EXT,
                   "command": {"name": command, "twist": twist, **extra}}
            with open(path, "w") as fh:
                json.dump(doc, fh)
            jobs.append({"name": f"gr42-{command}/json", "path": os.path.relpath(path, ROOT),
                         "format": "json", "command": command})
        return {"jobs": jobs}
    if workload == "h2-classes":
        inputs = {}
        for key in ("gf9", "gr42"):
            z2 = expected[key]["z2"]
            pairs = [tuple(rng.sample(range(len(z2)), 2)) for _ in range(3)]
            inputs[key] = {
                "class_pairs": [tuple(rng.sample(range(len(z2)), 2)) for _ in range(3)],
                "cohomologous_pairs": [(z2[a], z2[b]) for a, b in pairs],
            }
        return inputs
    return {"cocycles": rng.sample(expected["rebased"]["z2"], 3)}


# -- children ----------------------------------------------------------------------


def spawn(task: dict) -> dict:
    """Run one child to completion; a crash or bad output comes back as `error`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    task = dict(task, root=ROOT, t_spawn=monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")],
            input=json.dumps(task), capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def run_pass(workload: str, inputs: dict, trace: bool, verify: bool) -> dict:
    """One pass: 26 job children for cli-mix, one pass child otherwise."""
    if workload == "cli-mix":
        children = [spawn({"workload": workload, "mode": "job", "job": job, "trace": trace})
                    for job in inputs["jobs"]]
    else:
        children = [spawn({"workload": workload, "mode": "pass", "inputs": inputs,
                           "trace": trace, "verify": verify})]
    rec = {"wall_s": 0.0, "phases": {}, "setups": [], "jobs_s": [], "digests": [], "rss": 0.0,
           "attempted": 0, "failed": 0, "failures": [], "layers": [], "spans": []}
    for child in children:
        if "error" in child:
            rec["attempted"] += 1
            rec["failed"] += 1
            rec["failures"].append(child["error"])
            continue
        rec["wall_s"] += child["wall_s"]
        rec["setups"].append(child["setup_s"])
        rec["digests"].append(child["digest"])
        rec["rss"] = max(rec["rss"], child["peak_rss_mb"])
        if workload == "cli-mix":
            rec["jobs_s"].append(child["wall_s"])
        for name, value in child["phases"].items():
            rec["phases"][name] = rec["phases"].get(name, 0.0) + value
        for op, ok in child["checks"]:
            rec["attempted"] += 1
            if not ok:
                rec["failed"] += 1
                rec["failures"].append(f"check failed: {op}")
        if trace:
            rec["layers"].append(child["trace"])
            rec["spans"].append(child["spans"])
    return rec


def layer_values(rec: dict) -> dict:
    """Per-layer metrics of one traced pass, summed over its children."""
    out = {}
    for metric in LAYER_METRICS:
        span, field = metric.rsplit(".", 1)
        if field == "elems_per_s":
            continue
        field = FIELD_ALIASES.get(field, field)
        out[metric] = sum(agg.get(span, {}).get(field, 0) for agg in rec["layers"])
    sweep_s = sum(agg["classify.classify_all"]["s"] for agg in rec["layers"])
    out["classify.classify_all.elems_per_s"] = out["classify.classify_all.elements"] / sweep_s if sweep_s else 0.0
    out["trace.self_sum_s"] = sum(agg["trace"]["self_sum_s"] for agg in rec["layers"])
    return out


# -- one workload ------------------------------------------------------------------


def percentile_line(samples_ms: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples_ms)
    if n < 20:
        return None
    q = int(100 * (n - 10) / n)
    return q, statistics.quantiles(samples_ms, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    load_before = loadavg()
    inputs = make_inputs(workload, seed, expected)
    warm = spawn({"workload": workload, "mode": "setup", "machine": True})
    setups = [spawn({"workload": workload, "mode": "setup"}) for _ in range(SETUP_SAMPLES)]
    failures = [c["error"] for c in [warm, *setups] if "error" in c]
    setup_samples = [c["setup_s"] for c in setups if "error" not in c]
    plain, traced = [], []
    t_passes = monotonic()
    while True:
        plain.append(run_pass(workload, inputs, trace=False, verify=not plain))
        if trace:
            traced.append(run_pass(workload, inputs, trace=True, verify=False))
        # start another pass only if it is expected to end within --seconds
        elapsed = monotonic() - t_passes
        if elapsed + elapsed / len(plain) > seconds:
            break
    passes = plain + traced
    attempted = len(failures) + sum(r["attempted"] for r in passes)
    failed = len(failures) + sum(r["failed"] for r in passes)
    failures += [f for r in passes for f in r["failures"]]
    digests = {tuple(r["digests"]) for r in passes if len(r["digests"]) == len(passes[0]["digests"])}
    if len(digests) != 1:
        attempted += 1
        failed += 1
        failures.append("outputs differ between passes (traced and untraced must be byte-identical)")

    metrics = {}
    if not trace:
        setup_samples += [s for r in plain for s in r["setups"]]
        metrics["setup_s"] = statistics.median(setup_samples) if setup_samples else 0.0
        if workload == "cli-mix":
            # per job, the median over passes; a pass is one sample of every job
            metrics["wall_s"] = sum(statistics.median(js) for js in zip(*(r["jobs_s"] for r in plain)))
        else:
            metrics["wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["peak_rss_mb"] = max(r["rss"] for r in plain)
        for phase in sorted({p for r in plain for p in r["phases"]}):
            metrics[phase] = statistics.median(r["phases"].get(phase, 0.0) for r in plain)
        jobs_ms = [s * 1000 for r in plain for s in r["jobs_s"]]
        if jobs_ms:
            metrics["job_ms.p50"] = statistics.median(jobs_ms)
            top = percentile_line(jobs_ms)
            if top:
                metrics[f"job_ms.p{top[0]}"] = top[1]
    else:
        per_pass = [layer_values(r) for r in traced]
        for name in per_pass[0]:
            middle = statistics.median_low if unit_of(name) == "count" else statistics.median
            metrics[name] = middle(v[name] for v in per_pass)
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["trace_overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["failed_ops_ratio"] = failed / attempted if attempted else 1.0
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples": {"setup_s": len(setup_samples), "job_ms": sum(len(r["jobs_s"]) for r in plain)},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "machine": warm.get("machine"),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "pass_walls_s": [r["wall_s"] for r in plain],
        "pass_jobs_s": [r["jobs_s"] for r in plain],
        "traced_pass_walls_s": [r["wall_s"] for r in traced],
        "spans": [r["spans"] for r in traced],
    }


def report(res: dict) -> None:
    m = res["metrics"]
    print(f"workload {res['workload']} seed {res['seed']} trace {int(res['trace'])}: "
          f"{res['passes']} untraced + {res['traced_passes']} traced passes, "
          f"{res['failed']}/{res['attempted']} ops failed")
    print(f"machine {json.dumps(res['machine'], sort_keys=True)}")
    print(f"loadavg before [{res['loadavg_before']}] after [{res['loadavg_after']}]")
    for name in sorted(m):
        extra = ""
        if name == "setup_s":
            extra = f"  (median of {res['samples']['setup_s']})"
        elif name.startswith("job_ms."):
            extra = f"  (n={res['samples']['job_ms']})"
        print(f"metric {name} {m[name]:.6g} {unit_of(name)}{extra}")
    if res["trace"]:
        gap = abs(m["trace.self_sum_s"] - m["trace.untraced_wall_s"])
        print(f"trace coverage: self times sum to {m['trace.self_sum_s']:.4f} s against untraced wall "
              f"{m['trace.untraced_wall_s']:.4f} s (gap {gap:.4f} s, overhead {m['trace_overhead_s']:.4f} s)")
    for f in res["failures"][:20]:
        print(f"FAILED: {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "corings", "__init__.py")):
        print(f"error: no corings source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), expected) for w in names]
    for res in results:
        report(res)
        with open(os.path.join(OUT, f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(res, fh)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{d['name']}" if prefix else d["name"]): {"value": r["metrics"][d["name"]], "unit": d["unit"]}
        for r in results
        for d in declared
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
