#!/usr/bin/env python3
"""Steadiness pass: run one or more workloads over several seeds and report,
per metric, the median and the quartile spread as a share of the median
(the check BENCHMARK.json's bounds are held to).

Usage (from the repository root):

    python3 perfbench/steady.py --workloads twopath-dense,chain-sparse \
        --seeds 1-10 [--seconds 20] [--trace 0] [--save a.json] [--against b.json]

Exits non-zero if any run fails, if an end-to-end metric's spread exceeds
its bound in BENCHMARK.json (with --trace 0), or, with --against, if a
median is worse than the saved median of an earlier pass by more than
the bound. --save writes this pass's medians for such a comparison.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    ap.add_argument("--save", help="write this pass's medians to this JSON file")
    ap.add_argument("--against", help="compare medians with a file written by --save")
    a = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = json.loads(Path(a.against).read_text()) if a.against else {}
    medians = {}
    ok = True
    for workload in a.workloads.split(","):
        values = {}
        for seed in seeds(a.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench/run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", a.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-2000:])
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append((m["value"], m["unit"]))
        print(f"== {workload}")
        for name, vs in sorted(values.items()):
            v = [x for x, _ in vs]
            med = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else float("inf")
            medians.setdefault(workload, {})[name] = med
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            before = earlier.get(workload, {}).get(name)
            drift = ""
            if bound is not None and before:
                worse = (med - before) / before if lower[name] else (before - med) / before
                drift = f" vs earlier {worse:+7.3%}"
                if worse > bound:
                    flag += "  DRIFTED"
                    ok = False
            print(f"  {name:<34} median {med:>14.6f} {vs[0][1]:<8} spread {spread:7.3%}"
                  + (f" (bound {bound:.0%})" if bound is not None else "") + drift + flag)
            if a.verbose:
                print("    " + " ".join(f"{x:.4g}" for x in v))
    if a.save:
        Path(a.save).write_text(json.dumps(medians, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
