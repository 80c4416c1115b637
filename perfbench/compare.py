#!/usr/bin/env python3
"""Compare two sets of benchmark records.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of records (`<workload>-s<seed>-t<trace>.json`,
as a run writes them under perfbench/out/) or single record files. Records
are grouped by workload and trace mode; for every metric the medians and
quartiles of both sets are printed, with the change as a share of the base
median and, for end-to-end metrics, whether it exceeds the bound in
BENCHMARK.json.

The comparison is refused (exit status 2) when a workload was measured
with a different SIMD backend or thread count in the two sets: their
numbers describe different programs.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, f) for f in sorted(os.listdir(path))
        if f.endswith(".json")
    ]
    records = []
    for f in files:
        with open(f) as fh:
            records.append(json.load(fh))
    return records


def provenance(records, key):
    return {json.dumps(r["provenance"].get(key)) for r in records}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("no records found", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}

    def groups(records):
        out = {}
        for r in records:
            out.setdefault((r["workload"], r["trace"]), []).append(r)
        return out

    gb, gn = groups(base), groups(new)
    shared = sorted(set(gb) & set(gn))
    for key in shared:
        for prov in ("simd", "threads"):
            b, n = provenance(gb[key], prov), provenance(gn[key], prov)
            if len(b) != 1 or b != n:
                print(f"refusing to compare {key[0]}: {prov} differs ({sorted(b)} vs {sorted(n)})",
                      file=sys.stderr)
                return 2
    worse = 0
    for key in shared:
        print(f"\n{key[0]} ({'traced' if key[1] else 'untraced'}): {len(gb[key])} base, {len(gn[key])} new runs")
        for name in gb[key][0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in gb[key] if r["metrics"][name]["value"] is not None]
            nv = [r["metrics"][name]["value"] for r in gn[key] if r["metrics"][name]["value"] is not None]
            if not bv or not nv:
                continue
            (b1, bm, b3), (n1, nm, n3) = quartiles(bv), quartiles(nv)
            change = (nm - bm) / bm if bm else float("nan")
            note = ""
            if name in bounds:
                direction, bound = bounds[name]
                regress = change > bound if direction == "lower" else -change > bound
                if regress:
                    worse += 1
                    note = f"  WORSE than the {bound:.0%} bound"
            elif name not in better:
                continue
            unit = gb[key][0]["metrics"][name]["unit"]
            print(f"  {name:28s} {bm:12.6g} [{b1:.4g}, {b3:.4g}] -> {nm:12.6g} [{n1:.4g}, {n3:.4g}] {unit:8s} {change:+.1%}{note}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
