"""Write perfbench/expected.json from the current library.

The benchmark checks every run against this file, so regenerate it only when
the library's results are meant to change, and review the diff:

    PYTHONPATH=src python3 perfbench/regen_expected.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os

from child import HERE, array_sha256, build, rows

from corings import TwistedAlgebra, TwistElement, classify_all, cli, compute_h2, enumerate_units
from corings.classify import BrauerClass, monoid_quotient

FIXED_JOBS = sorted(f[:-5] for f in os.listdir(os.path.join(HERE, "jobs")) if f.endswith(".json"))


def extension_facts(ext, quotient: bool, dual_side: str) -> dict:
    g = compute_h2(ext)
    out = {
        "z2": rows(g.z2),
        "b2": rows(g.b2),
        "h2_order": g.order,
        "census": classify_all(ext, counit_oracle=False).counts,
        "identity_class": list(BrauerClass.of_twist(TwistElement(ext, ext.tensor_power(3).one_vec())).rep),
        "top_one": [int(v) for v in ext.top.one],
        "dual_dimension": TwistedAlgebra(ext, TwistElement(ext, g.z2[0]), dual_side).algebra().dim,
    }
    if quotient:
        out["quotient_orbits"] = len(monoid_quotient(ext, "full").representatives)
    return out


def main() -> None:
    expected = {"cli": {}}
    for name in FIXED_JOBS:
        for fmt in ("text", "json"):
            buf = io.BytesIO()
            path = os.path.join("perfbench", "jobs", f"{name}.json")
            if cli.run([path, "--format", fmt, "--jobs", "1"], stdout=buf) != 0:
                raise SystemExit(f"{name} ({fmt}) did not exit 0")
            expected["cli"][f"{name}/{fmt}"] = hashlib.sha256(buf.getvalue()).hexdigest()
    h2 = build("h2-classes")
    expected["gf9"] = extension_facts(h2["gf9"], quotient=True, dual_side="left")
    expected["gr42"] = extension_facts(h2["gr42"], quotient=True, dual_side="left")
    reb = build("rebased-sweep")["rebased"]
    expected["rebased"] = extension_facts(reb, quotient=False, dual_side="right")
    units = enumerate_units(reb.tensor_power(3).ring, as_array=True)
    expected["rebased"]["units3_count"] = len(units)
    expected["rebased"]["units3_sha256"] = array_sha256(units)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
