"""Outside-in span tracing of the public functions of corings.

`install` replaces each listed function at every corings module attribute
that refers to it (amitsur imports enumerate_units by name, cli imports
compute_h2 by name, ...), so calls the library makes internally are recorded
too.  Methods are replaced on their class.  Nothing under src/ is touched
and no private name of the library is read.

Spans carry their parent's id and stay in memory; the child process
aggregates them and hands them to the parent when it exits.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _size_of_sweep(ext, *args, **kwargs):
    # |S^⊗3| = n^(rank of R * degree^3), read from the arguments without
    # building the tensor power
    return ext.n ** (ext.base.rank * ext.degree**3)


# span name -> (corings submodule, attribute, count taken from the arguments)
SPANS = {
    "zmod.howell": ("zmod", "howell", None),
    "zmod.batch_nonsingular": ("zmod", "batch_nonsingular", lambda mats, *a, **k: len(mats)),
    "zmod.batch_is_unit": ("zmod", "batch_is_unit", lambda coeffs, *a, **k: len(coeffs)),
    "rings.enumerate_units": ("rings", "enumerate_units", lambda ring, *a, **k: ring.size),
    "extensions.TensorPowerRing": ("extensions", "TensorPowerRing.__init__", None),
    "extensions.Extension.face_map": ("extensions", "Extension.face_map", None),
    "extensions.rebase_extension": ("extensions", "rebase_extension", None),
    "extensions.external_extension": ("extensions", "external_extension", None),
    "amitsur.compute_h2": ("amitsur", "compute_h2", None),
    "amitsur.cocycle_mask": ("amitsur", "cocycle_mask", lambda ext, units3, *a, **k: len(units3)),
    "amitsur.cohomologous": ("amitsur", "cohomologous", None),
    "classify.classify_all": ("classify", "classify_all", _size_of_sweep),
    "classify.monoid_quotient": ("classify", "monoid_quotient", None),
    "classify.BrauerClass.of_twist": ("classify", "BrauerClass.of_twist", None),
    "coring.twisted_coring": ("coring", "twisted_coring", None),
    "coring.check_coassociative": ("coring", "check_coassociative", None),
    "coring.coring_axiom_report": ("coring", "coring_axiom_report", None),
    "algebras.gamma_map": ("algebras", "gamma_map", None),
    "algebras.TwistedAlgebra.algebra": ("algebras", "TwistedAlgebra.algebra", None),
    "algebras.is_azumaya_algebra": ("algebras", "is_azumaya_algebra", None),
    "cli.run": ("cli", "run", None),
    "cli.parse_job": ("cli", "parse_job", None),
    "cli.run_job": ("cli", "run_job", None),
    "cli.emit_report": ("cli", "emit_report", None),
}

# hot, tiny functions: counted, not timed
COUNTED = {
    "rings.FiniteRing.mul_vec": ("rings", "FiniteRing.mul_vec"),
    "amitsur.delta1": ("amitsur", "delta1"),
}

CENSUS = "classify.classify_all"


class Recorder:
    """Spans (id, parent id, name, start, end, count) and call counters."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {name: 0 for name in COUNTED}
        self._stack: list[int] = []
        self._next_id = 0

    def timed(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            n = count(*args, **kwargs) if count else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, t0, t1, n))

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _replace(modname: str, attr: str, make) -> None:
    modules = [m for k, m in sys.modules.items() if k == "corings" or k.startswith("corings.")]
    owner = sys.modules[f"corings.{modname}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = inspect.getattr_static(cls, meth)
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return
    orig = getattr(owner, attr)
    new = make(orig)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


def install(rec: Recorder) -> None:
    """Wrap every listed function; the recorder stays disabled until asked."""
    import corings  # noqa: F401  (loads every submodule)
    import corings.cli  # noqa: F401

    for name, (modname, attr, count) in SPANS.items():
        _replace(modname, attr, lambda fn, name=name, count=count: rec.timed(name, fn, count))
    for name, (modname, attr) in COUNTED.items():
        _replace(modname, attr, lambda fn, name=name: rec.counted(name, fn))


def aggregate(rec: Recorder) -> dict:
    """Per span name: calls, inclusive s, self_s, summed count, census_self_s.

    Self time is a span's duration minus its direct children's.  Inclusive
    time counts only the outermost span of a name, so recursion is not
    counted twice.  census_self_s is self time spent under classify_all.
    """
    by_id = {s[0]: s for s in rec.spans}
    covered: dict[int, float] = {}
    for sid, parent, name, t0, t1, n in rec.spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "census_self_s": 0.0} for name in SPANS}
    root_s = 0.0
    for sid, parent, name, t0, t1, n in rec.spans:
        agg = out[name]
        self_s = (t1 - t0) - covered.get(sid, 0.0)
        agg["calls"] += 1
        agg["self_s"] += self_s
        agg["count"] += n or 0
        ancestors = []
        p = parent
        while p is not None:
            ancestors.append(by_id[p][2])
            p = by_id[p][1]
        if name not in ancestors:
            agg["s"] += t1 - t0
        if CENSUS in ancestors:
            agg["census_self_s"] += self_s
        if parent is None:
            root_s += t1 - t0
    for name, calls in rec.calls.items():
        out[name] = {"calls": calls}
    out["trace"] = {"self_sum_s": root_s}
    return out
