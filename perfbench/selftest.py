#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

Runs a tiny untraced and a tiny traced pass of every workload and checks
that the spans nest without overlapping siblings, that no parent's time
is exceeded by its children, that every per-layer metric is present,
and that tracing leaves the modelled results unchanged (identical
digests).

    python3 perfbench/selftest.py
"""

import json
import math
import sys
import tempfile
import time
from pathlib import Path

import run

SCALE_MULT = 0.05


def check_spans(path):
    spans = json.loads(Path(path).read_text())["spans"]
    errors = []
    children = {}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            errors.append(f"span {s['name']} was never closed")
        if s["parent"] < 0:
            continue
        if s["parent"] >= s["id"]:
            errors.append(f"span {s['name']} precedes its parent")
            continue
        p = spans[s["parent"]]
        if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            errors.append(f"span {s['name']} escapes parent {p['name']}")
        if s["aggregate"]:
            # Summed call time inside the parent's interval.
            if s["agg_ns"] > p["end_ns"] - p["start_ns"]:
                errors.append(f"aggregate {s['name']} exceeds {p['name']}")
        else:
            children.setdefault(p["id"], []).append(s)
    for pid, kids in children.items():
        p = spans[pid]
        # The benchmark is single-threaded: siblings run one after another.
        kids.sort(key=lambda k: k["start_ns"])
        for a, b in zip(kids, kids[1:]):
            if b["start_ns"] < a["end_ns"]:
                errors.append(f"spans {a['name']} and {b['name']} overlap")
        if sum(k["end_ns"] - k["start_ns"] for k in kids) > (
                p["end_ns"] - p["start_ns"]):
            errors.append(f"children of {p['name']} exceed its time")
    if not spans or spans[0]["parent"] != -1:
        errors.append("no root span")
    return errors


def main():
    run.build()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    errors = []
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        for workload in run.WORKLOADS:
            deadline = time.monotonic() + run.HARD_LIMIT_S
            plain = run.run_pass(workload, 7, False, 0, deadline, SCALE_MULT)
            traced = run.run_pass(workload, 7, True, 0, deadline, SCALE_MULT,
                                  Path(tmp))
            for p in (plain, traced):
                errors += [f"{workload}: {f}" for f in p["failures"]]
            if plain["digest"] != traced["digest"]:
                errors.append(f"{workload}: tracing changed the digest "
                              f"({plain['digest']} vs {traced['digest']})")
            spans = Path(tmp) / f"{workload}-seed7-0.json"
            errors += [f"{workload}: {e}" for e in check_spans(spans)]
            layers = run.per_layer([plain], [traced])
            for name in names:
                if name not in layers or not math.isfinite(layers[name][0]):
                    errors.append(f"{workload}: per-layer metric {name} "
                                  "missing")
    for e in errors:
        print("selftest: " + e)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
